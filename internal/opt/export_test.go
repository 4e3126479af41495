package opt

// SetFoldCacheBound lowers the bound on the fold history for a test.
func (o *Optimizer) SetFoldCacheBound(bytes int) { o.foldBound = bytes }
