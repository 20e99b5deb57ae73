package experiments

// BorderIntervalRed and LongestStop expose the paper's red estimator and
// the naive one to the ablation benchmarks of the external test package.
var (
	BorderIntervalRed = borderIntervalRed
	LongestStop       = longestStop
)
