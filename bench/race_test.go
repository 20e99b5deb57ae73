//go:build race

package main

// Under the race detector the program runs several times slower while the
// paced feed keeps its wall-clock schedule, so the smoke tests keep looking
// for races but tolerate a run the harness declares void and do not time
// themselves.
const raceEnabled = true
