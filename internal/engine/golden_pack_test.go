package engine

import (
	"math"
	"runtime"
	"testing"

	"storm/internal/rstree"
	"storm/internal/rtree"
)

// packDerivedGoldenFile pins the per-node state a pack derives from the
// sorted entries, which golden_bulkload.txt does not: one line per tree,
// "<case>/<tree> <nodes> <sha256>", over every node's MBR (float bits), LHV
// and Hilbert key cache in pre-order, and one "<case>/<tree>-buffers" line
// per RS-tree over every node's sample buffer as entry IDs in stored order.
// It was recorded at the commit BEFORE packing and buffer precompute were
// fanned across goroutines, re-recorded once when stats.RNG moved onto PCG
// (the generated records and every seeded draw changed), and must never be
// regenerated to make a build-path change pass. STORM_UPDATE_GOLDEN=1 rewrites it (deliberate,
// reviewed changes only).
const packDerivedGoldenFile = "testdata/golden_pack_derived.txt"

// derivedDigest digests every node's MBR, LHV and Hilbert key cache.
func derivedDigest(t *rtree.Tree) string {
	return preorderDigest(t, func(n *rtree.Node, put func(uint64)) {
		mbr := n.MBR()
		for d := range mbr.Min {
			put(math.Float64bits(mbr.Min[d]))
			put(math.Float64bits(mbr.Max[d]))
		}
		put(n.LHV())
		keys := n.HilbertKeys()
		put(uint64(len(keys)))
		for _, k := range keys {
			put(k)
		}
	})
}

// bufferDigest digests every node's stored sample buffer, in stored order.
func bufferDigest(x *rstree.Index) string {
	return preorderDigest(x.Tree(), func(n *rtree.Node, put func(uint64)) {
		buf := x.StoredBuffer(n)
		put(uint64(len(buf)))
		for _, e := range buf {
			put(e.ID)
		}
	})
}

// TestGoldenPackDerivedState is the safety net for the state a bulk load
// computes rather than copies: node MBRs, LHVs, Hilbert key caches and the
// RS-tree's precomputed sample buffers, over the same cases as
// TestGoldenBulkLoadStructure.
func TestGoldenPackDerivedState(t *testing.T) {
	derived := newGoldenLines(t)
	for _, set := range goldenSets {
		for _, fanout := range []int{8, 64} {
			registerGolden(t, set, fanout, newGoldenLines(t), derived)
		}
	}
	derived.check(packDerivedGoldenFile)
}

// TestRegisterSchedulingInvariance builds the golden cases under one, two
// and eight Ps and requires every line — structure, derived state, device
// counters, seeded streams — to be identical, so a box of any core count
// exercises both the inline and the fanned construction paths.
func TestRegisterSchedulingInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [2]*goldenLines
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := [2]*goldenLines{newGoldenLines(t), newGoldenLines(t)}
		for _, set := range goldenSets {
			for _, fanout := range []int{8, 64} {
				registerGolden(t, set, fanout, got[0], got[1])
			}
		}
		if procs == 1 {
			want = got
			continue
		}
		for i, w := range want {
			for _, name := range w.order {
				if w.got[name] != got[i].got[name] {
					t.Errorf("GOMAXPROCS=%d: %s differs from GOMAXPROCS=1\n  want: %s\n  got:  %s",
						procs, name, w.got[name], got[i].got[name])
				}
			}
		}
	}
}
