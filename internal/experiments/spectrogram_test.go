package experiments

import (
	"math"
	"testing"
)

func TestSTFTTracksPeriodChange(t *testing.T) {
	// First half period 64, second half period 128: the dominant-period
	// track must step accordingly.
	n := 8192
	x := make([]float64, n)
	for i := range x {
		p := 64.0
		if i >= n/2 {
			p = 128
		}
		x[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/p)
	}
	sg, err := stft(x, 512, 256)
	if err != nil {
		t.Fatal(err)
	}
	track, err := sg.dominantPeriodTrack(32, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(track) != len(sg.power) {
		t.Fatalf("track length %d vs %d frames", len(track), len(sg.power))
	}
	// Early frames near 64, late frames near 128 (skip transition frames).
	if math.Abs(track[0]-64) > 8 {
		t.Fatalf("early period %v, want ~64", track[0])
	}
	last := track[len(track)-1]
	if math.Abs(last-128) > 16 {
		t.Fatalf("late period %v, want ~128", last)
	}
}

func TestSTFTErrors(t *testing.T) {
	x := make([]float64, 100)
	if _, err := stft(x, 2, 10); err == nil {
		t.Fatal("tiny segment accepted")
	}
	if _, err := stft(x, 200, 10); err == nil {
		t.Fatal("oversized segment accepted")
	}
	if _, err := stft(x, 64, 0); err == nil {
		t.Fatal("zero hop accepted")
	}
	sg, err := stft(x, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.dominantPeriodTrack(0, 10); err == nil {
		t.Fatal("bad period range accepted")
	}
}

func TestSTFTFrameBookkeeping(t *testing.T) {
	x := make([]float64, 1000)
	sg, err := stft(x, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Frames at 0, 128, 256, ..., last start <= 1000-256 = 744.
	want := 0
	for start := 0; start+256 <= 1000; start += 128 {
		if sg.frameStart[want] != start {
			t.Fatalf("frame %d starts at %d, want %d", want, sg.frameStart[want], start)
		}
		want++
	}
	if len(sg.power) != want {
		t.Fatalf("frames = %d, want %d", len(sg.power), want)
	}
}
