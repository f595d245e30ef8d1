package matrix

import "sync"

// Per-worker scratch recycling for the streaming kernel. ForEachRowProduct
// is invoked once per engine chunk (star join groups); pooling the count
// buffers makes a warm steady state allocate nothing per call, which the
// zero-alloc test in diff_test.go pins down.

// int32Pool recycles the per-worker count blocks of ForEachRowProduct.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

func getInt32Scratch(n int) *[]int32 {
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func putInt32Scratch(p *[]int32) { int32Pool.Put(p) }
