package hw

// IdealKernelTime returns the roofline lower bound for a kernel performing
// flops floating-point operations and moving bytes through memory: the
// larger of the compute-bound and memory-bound times. It is the paper's
// roofline model (§3.3, Eq. 2), R(I) = min(PeakFLOPS, I · MemBandwidth)
// for arithmetic intensity I = flops/bytes, read as a time: flops / R(I).
// It depends only on hardware specifications, never on execution — which
// is exactly what makes Arena's execution-free load estimation possible.
// The planner uses it as an operator "load" denominator; the execution
// engine layers efficiency curves and overheads on top of it.
func (g GPU) IdealKernelTime(flops, bytes float64) float64 {
	var tc, tm float64
	if g.PeakFLOPS > 0 {
		tc = flops / g.PeakFLOPS
	}
	if g.MemBandwidth > 0 {
		tm = bytes / g.MemBandwidth
	}
	if tc > tm {
		return tc
	}
	return tm
}
