package main

import (
	"math"
	"testing"

	"mcloud/internal/metrics"
)

// TestMergeExpositionKeepsWorstQuantile: counters sum across nodes and
// a quantile keeps the highest value, whichever node is scraped first —
// including when an idle node's empty histogram reports NaN.
func TestMergeExpositionKeepsWorstQuantile(t *testing.T) {
	p99 := metrics.Key("mcs_frontend_chunk_seconds", "dir", "store", "device", "all", "quantile", "0.99")
	fsyncs := metrics.Key("mcs_disk_fsyncs_total")
	idle := map[string]float64{p99: math.NaN(), fsyncs: 0}
	busy := map[string]float64{p99: 0.004, fsyncs: 7}
	calm := map[string]float64{p99: 0.001, fsyncs: 3}
	for name, order := range map[string][]map[string]float64{
		"idle first": {idle, busy, calm},
		"idle last":  {calm, busy, idle},
	} {
		merged := map[string]float64{}
		for _, vals := range order {
			mergeExposition(merged, vals)
		}
		if got := merged[p99]; got != 0.004 {
			t.Errorf("%s: merged p99 = %g, want the busy node's 0.004", name, got)
		}
		if got := merged[fsyncs]; got != 10 {
			t.Errorf("%s: merged fsyncs = %g, want 10", name, got)
		}
	}
}
