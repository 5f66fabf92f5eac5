package main

// Deltas of gatord's /metrics.json between two scrapes: the server's
// stage_duration_us histograms (queue, parse, solve, render) are cumulative,
// so the traced window's share is the difference of two snapshots.

import (
	"encoding/json"
	"fmt"
)

// metricsSnapshot is the part of /metrics.json the benchmark reads.
type metricsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

func parseMetrics(data []byte) (metricsSnapshot, error) {
	var s metricsSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return s, nil
}

// stageKey is the /metrics.json name of one stage_duration_us series.
func stageKey(stage string) string { return `stage_duration_us{stage="` + stage + `"}` }

// histDelta is the growth of one histogram between two snapshots.
type histDelta struct {
	Count int64
	SumUS int64
}

// histogramDelta returns after minus before for the named histogram. A
// histogram absent from before counts from zero; a shrinking one (a server
// restarted between scrapes) is an error.
func histogramDelta(before, after metricsSnapshot, name string) (histDelta, error) {
	a := after.Histograms[name]
	b := before.Histograms[name]
	d := histDelta{Count: a.Count - b.Count, SumUS: a.Sum - b.Sum}
	if d.Count < 0 || d.SumUS < 0 {
		return histDelta{}, fmt.Errorf("histogram %s went backwards (%d→%d observations)", name, b.Count, a.Count)
	}
	return d, nil
}
