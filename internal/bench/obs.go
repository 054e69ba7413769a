package bench

import (
	"strings"

	"storm/internal/iosim"
	"storm/internal/obs"
	"storm/internal/sampling"
)

// Obs, when non-nil, receives per-method telemetry from every figure and
// ablation run under names of the form storm.bench.<figure>.<method>.*.
// cmd/stormbench sets it for the -metrics mode; it is nil by default so the
// hot benchmark loops stay instrumentation-free unless asked. The registry
// is read between figures, not concurrently with them, so figure code may
// write to it without extra synchronisation beyond the metrics' own atomics.
var Obs *obs.Registry

// metricName lowers a human method label ("RS-tree", "str (default)") into
// a metric-name segment.
func metricName(label string) string {
	s := strings.ToLower(label)
	s = strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(s)
	return s
}

// record flushes one sampler run's telemetry into Obs: the sampler's draw
// accounting and the device's physical I/O counters. No-op when Obs is nil or the run used no device.
func record(figure, method string, s sampling.Sampler, dev *iosim.Device) {
	if Obs == nil {
		return
	}
	prefix := "storm.bench." + figure + "." + metricName(method) + "."
	st := s.SamplerStats()
	Obs.Counter(prefix + "draws").Add(st.Draws)
	Obs.Counter(prefix + "rejects").Add(st.Rejects)
	Obs.Counter(prefix + "explosions").Add(st.Explosions)
	Obs.Counter(prefix + "scans").Add(st.Scans)
	if dev != nil {
		st := dev.Stats()
		Obs.Counter(prefix + "io.reads").Add(st.Reads)
		Obs.Counter(prefix + "io.hits").Add(st.Hits)
		Obs.Counter(prefix + "io.evictions").Add(st.Evictions)
	}
}
