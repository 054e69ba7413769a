// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is a copy of Go 1.24's src/slices/zsortanyfunc.go (the pdqsort
// family behind slices.SortFunc) plus the xorshift and nextPowerOfTwo helpers
// from src/slices/sort.go, specialised to Keyed elements. It has two edits.
// Every `cmp(a, b) < 0` reads `a.Key < b.Key`. And pdqsortKeyed sorts the
// smaller side of a partition on a goroutine of its own once that side holds
// forkGrain elements (forkKeyed). The two sides are disjoint, and the one
// element a range reads outside itself, data[a-1], is a placed pivot or part
// of a finished equal block, written before the fork and never moved after
// it. Control flow, pivot choice, limit, wasBalanced and the length-seeded
// xorshift are unchanged, so every comparison outcome — and with it every
// permutation, the order of equal keys included — is the one
// slices.SortFunc gives with a comparator that orders by Key alone, however
// the forks are scheduled. The stable-sort half of that file is not needed
// and not copied.
//
// This copy, not the toolchain's, defines STR, Hilbert and partition order:
// golden_bulkload.txt, golden_pack_derived.txt and the shard a tied record
// lands in rest on it. Do not "update" it to a newer stdlib sort.

package rtree

import (
	"math/bits"
	"sync"
)

// Keyed is what the bulk-load sorts move: a sort key and the position of the
// element it belongs to — half the bytes of a data.Entry; the elements
// themselves are gathered once per pass.
type Keyed[K float64 | uint64] struct {
	Key K
	Idx int
}

// SortKeyed sorts x by Key in ascending order. It is not stable: equal keys
// (and, for float64, NaNs, which compare equal to everything) end in the
// order pdqsort leaves them, which depends only on the comparison outcomes,
// never on Idx or on scheduling. Large inputs are sorted on several
// goroutines; SortKeyed returns once all of them are done.
func SortKeyed[K float64 | uint64](x []Keyed[K]) {
	n := len(x)
	var forks sync.WaitGroup
	pdqsortKeyed(x, 0, n, bits.Len(uint(n)), &forks)
	forks.Wait()
}

// forkGrain is the fewest elements the smaller side of a partition must hold
// to be sorted on a goroutine of its own: a few hundred microseconds of
// sorting, against about a microsecond to start the goroutine. Smaller sides
// — every side of a run-sized sort — recurse inline.
const forkGrain = 1 << 14

// forkKeyed sorts data[a:b], the smaller side of a partition, on a new
// goroutine counted in forks when it holds at least forkGrain elements, and
// inline otherwise.
func forkKeyed[K float64 | uint64](data []Keyed[K], a, b, limit int, forks *sync.WaitGroup) {
	if b-a < forkGrain {
		pdqsortKeyed(data, a, b, limit, forks)
		return
	}
	forks.Add(1)
	go func() {
		defer forks.Done()
		pdqsortKeyed(data, a, b, limit, forks)
	}()
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSortKeyed sorts data[a:b] using insertion sort.
func insertionSortKeyed[K float64 | uint64](data []Keyed[K], a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && (data[j].Key < data[j-1].Key); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownKeyed implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownKeyed[K float64 | uint64](data []Keyed[K], lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && (data[first+child].Key < data[first+child+1].Key) {
			child++
		}
		if !(data[first+root].Key < data[first+child].Key) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortKeyed[K float64 | uint64](data []Keyed[K], a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownKeyed(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownKeyed(data, lo, i, first)
	}
}

// pdqsortKeyed sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
// Smaller sides go through forkKeyed, which counts the goroutines it starts in forks.
func pdqsortKeyed[K float64 | uint64](data []Keyed[K], a, b, limit int, forks *sync.WaitGroup) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortKeyed(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortKeyed(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsKeyed(data, a, b)
			limit--
		}

		pivot, hint := choosePivotKeyed(data, a, b)
		if hint == decreasingHint {
			reverseRangeKeyed(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortKeyed(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].Key < data[pivot].Key) {
			mid := partitionEqualKeyed(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionKeyed(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			forkKeyed(data, a, mid, limit, forks)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			forkKeyed(data, mid+1, b, limit, forks)
			b = mid
		}
	}
}

// partitionKeyed does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionKeyed[K float64 | uint64](data []Keyed[K], a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && (data[i].Key < data[a].Key) {
		i++
	}
	for i <= j && !(data[j].Key < data[a].Key) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && (data[i].Key < data[a].Key) {
			i++
		}
		for i <= j && !(data[j].Key < data[a].Key) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualKeyed partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualKeyed[K float64 | uint64](data []Keyed[K], a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].Key < data[i].Key) {
			i++
		}
		for i <= j && (data[a].Key < data[j].Key) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortKeyed partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortKeyed[K float64 | uint64](data []Keyed[K], a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].Key < data[i-1].Key) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].Key < data[j-1].Key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].Key < data[j-1].Key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsKeyed scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsKeyed[K float64 | uint64](data []Keyed[K], a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotKeyed chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotKeyed[K float64 | uint64](data []Keyed[K], a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentKeyed(data, i, &swaps)
			j = medianAdjacentKeyed(data, j, &swaps)
			k = medianAdjacentKeyed(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianKeyed(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Keyed returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Keyed[K float64 | uint64](data []Keyed[K], a, b int, swaps *int) (int, int) {
	if data[b].Key < data[a].Key {
		*swaps++
		return b, a
	}
	return a, b
}

// medianKeyed returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianKeyed[K float64 | uint64](data []Keyed[K], a, b, c int, swaps *int) int {
	a, b = order2Keyed(data, a, b, swaps)
	b, c = order2Keyed(data, b, c, swaps)
	a, b = order2Keyed(data, a, b, swaps)
	return b
}

// medianAdjacentKeyed finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentKeyed[K float64 | uint64](data []Keyed[K], a int, swaps *int) int {
	return medianKeyed(data, a-1, a, a+1, swaps)
}

func reverseRangeKeyed[K float64 | uint64](data []Keyed[K], a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
