package lib

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 2 {
		t.Fatal("TestedOnly")
	}
}
