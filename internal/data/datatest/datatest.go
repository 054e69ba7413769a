// Package datatest holds datasets shared by the test suites of the packages
// that sort and index records (internal/rtree, internal/distr,
// internal/engine), so each runs its order checks over the same tie-heavy
// data.
package datatest

import (
	"storm/internal/data"
	"storm/internal/geo"
)

// TieHeavy generates a point set built to collide on every sort key: integer
// grid coordinates, whole-second timestamps, and every fifth record an exact
// duplicate of an earlier one, with a numeric column "value". Equal keys are
// where a sort's tie-breaking rule decides the layout.
func TieHeavy(n int) *data.Dataset {
	ds := data.NewDataset("ties")
	ds.AddNumericColumn("value")
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	for i := 0; i < n; i++ {
		var pos geo.Vec
		if i%5 == 4 {
			pos = ds.Pos(next(uint64(i)))
		} else {
			pos = geo.Vec{float64(next(40)), float64(next(40)), float64(next(100))}
		}
		ds.Append(data.Row{Pos: pos, Num: map[string]float64{"value": float64(next(1000))}})
	}
	return ds
}
