package distr_test

import (
	"testing"

	"storm/internal/distr"
)

// FuzzParseFaultPlan fuzzes the operator-facing fault-plan grammar: no
// input may panic the parser, and every accepted input must round-trip
// through the canonical serializer — Parse(spec).String() is a fixpoint
// (parsing the canonical form and re-serializing reproduces it exactly).
// The fixpoint property is the strongest one that holds for free-form
// input: the original spec may normalize (whitespace, leading zeros,
// duplicate segments merge), but the canonical form may not drift.
//
// Run the full fuzzer with:
//
//	go test -run FuzzParseFaultPlan -fuzz FuzzParseFaultPlan -fuzztime 30s ./internal/distr/
//
// Without -fuzz, the checked-in corpus under
// testdata/fuzz/FuzzParseFaultPlan plus the f.Add seeds run as regression
// cases on every ordinary `go test`.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"  ",
		"*:latency-p=0.05",
		"1:crash-after=40",
		"1:crash-after=40,recover-after=6",
		"3-4:transient-every=7,latency=2ms",
		"0:crash-after=0;2:timeout-every=3;*:transient-p=0.25",
		"1:crash-after=40;1:latency-every=2",
		"7:latency=1h0m0s",
		"1:bogus=3",
		"x:crash-after=1",
		"5-2:latency=1ms",
		"1:transient-p=1.5",
		"1:recover-after=-1",
		";;;",
		"1:",
		":crash-after=1",
		"*:*",
		// Replica targets (DESIGN.md §4.8): '<shard>.<replica>' scripts one
		// copy, '*.<replica>' that copy of every shard; plain targets keep
		// their all-copies meaning alongside them.
		"2.0:crash-after=1",
		"2.1:crash-after=3",
		"*.1:latency-p=0.1,latency=1ms",
		"2:crash-after=40;2.1:crash-after=3",
		"0.0:crash-after=0,recover-after=2;*:transient-p=0.25",
		"1.-1:crash-after=1",
		"1.x:crash-after=1",
		"1-3.1:crash-after=1",
		"2.00:crash-after=1",
		"2.:crash-after=1",
		".1:crash-after=1",
		"2.1.0:crash-after=1",
		// A range expands ID by ID: past maxShards it is refused, not
		// expanded (this one used to hang the parser).
		"0-888888815:crash-after=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := distr.ParseFaultPlan(spec)
		if err != nil {
			if plan != nil {
				t.Fatalf("ParseFaultPlan(%q) returned a plan alongside error %v", spec, err)
			}
			return
		}
		canon := plan.String()
		replan, err := distr.ParseFaultPlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if again := replan.String(); again != canon {
			t.Fatalf("String is not a fixpoint for %q: %q -> %q", spec, canon, again)
		}
	})
}
