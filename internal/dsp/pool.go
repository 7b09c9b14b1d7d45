package dsp

// Pool is the handle of the analysis package's pooled entry point,
// which ignores it; no spectrum runs on a pool.
type Pool struct{}

// NewPool returns a pool; the worker count is ignored.
func NewPool(workers int) *Pool { return &Pool{} }
