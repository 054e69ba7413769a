package rstree

import (
	"math/bits"
	"sync"

	"storm/internal/data"
	"storm/internal/rtree"
)

// Scratch pools for the sampler hot paths. Per-part permutation slices,
// materialized part contents and the materialization traversal stack are the
// only transient allocations a long-running query makes repeatedly;
// recycling them keeps the steady-state batch loop allocation-free and takes
// pressure off the GC when many queries run concurrently.

// slicePool recycles slices of T. A slice lives in the box (*[]T) it was
// first allocated with and the pool stores the box itself, so neither taking
// a slice out nor putting it back allocates. Whoever holds the box owns the
// slice: it goes back at most once, and nothing reads it afterwards.
type slicePool[T any] struct{ boxes sync.Pool }

// get returns a box holding a slice of length n, contents unspecified.
func (p *slicePool[T]) get(n int) *[]T {
	if b, ok := p.boxes.Get().(*[]T); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	s := make([]T, n)
	return &s
}

func (p *slicePool[T]) put(b *[]T) { p.boxes.Put(b) }

// intPool holds permutation and position scratch, all of it a few buffer
// sizes long.
var intPool slicePool[int]

// entryPools holds materialized part contents. A part's subtree is anything
// from one leaf to most of the tree, so slices are kept by capacity class:
// pool c holds capacity 1<<c exactly, and a request is always served from
// the class that fits it.
var entryPools [bits.UintSize]slicePool[data.Entry]

// getEntries returns a box holding an empty slice with room for n entries.
func getEntries(n int) *[]data.Entry {
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	b := entryPools[c].get(1 << c)
	*b = (*b)[:0]
	return b
}

// putEntries recycles a box obtained from getEntries.
func putEntries(b *[]data.Entry) {
	entryPools[bits.Len(uint(cap(*b)))-1].put(b)
}

var nodePool slicePool[*rtree.Node]

// getNodeStack returns a box holding an empty node stack with spare capacity.
func getNodeStack() *[]*rtree.Node {
	b := nodePool.get(64)
	*b = (*b)[:0]
	return b
}

// putNodeStack recycles a traversal stack in its (possibly grown) final
// state, clearing its node pointers so a pooled stack never pins a discarded
// tree in memory.
func putNodeStack(b *[]*rtree.Node, stack []*rtree.Node) {
	stack = stack[:cap(stack)]
	clear(stack)
	*b = stack[:0]
	nodePool.put(b)
}
