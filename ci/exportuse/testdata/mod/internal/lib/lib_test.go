package lib

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 2 {
		t.Fatal("TestedOnly")
	}
	c := DefaultConfig()
	c.TestOnly = 1
	if Start(c) != 5 {
		t.Fatal("Start")
	}
}
