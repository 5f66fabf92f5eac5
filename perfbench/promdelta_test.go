package main

import (
	"math"
	"testing"
)

const scrapeBefore = `{
  "counters": {"server.analyze.requests": 10},
  "histograms": {
    "stage_duration_us{stage=\"parse\"}": {"count": 4, "sum": 1000, "max": 400, "buckets": [[500, 4]]},
    "stage_duration_us{stage=\"queue\"}": {"count": 10, "sum": 50, "max": 9, "buckets": []}
  }
}`

const scrapeAfter = `{
  "counters": {"server.analyze.requests": 30},
  "histograms": {
    "stage_duration_us{stage=\"parse\"}": {"count": 9, "sum": 3500, "max": 900, "buckets": [[500, 8], [1000, 9]]},
    "stage_duration_us{stage=\"queue\"}": {"count": 30, "sum": 150, "max": 9, "buckets": []},
    "stage_duration_us{stage=\"solve\"}": {"count": 5, "sum": 2000, "max": 700, "buckets": []},
    "stage_duration_us{stage=\"render\"}": {"count": 5, "sum": 500, "max": 200, "buckets": []}
  }
}`

func TestHistogramDelta(t *testing.T) {
	before, err := parseMetrics([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d, err := histogramDelta(before, after, stageKey("parse"))
	if err != nil || d.Count != 5 || d.SumUS != 2500 {
		t.Errorf("parse delta = %+v, %v; want 5 observations, 2500us", d, err)
	}
	// A histogram first seen in the second scrape counts from zero.
	if d, err := histogramDelta(before, after, stageKey("solve")); err != nil || d.Count != 5 || d.SumUS != 2000 {
		t.Errorf("solve delta = %+v, %v; want 5 observations, 2000us", d, err)
	}
	// Scrapes in the wrong order (or across a restart) are an error.
	if _, err := histogramDelta(after, before, stageKey("parse")); err == nil {
		t.Error("a shrinking histogram gave no error")
	}
}

func TestServerStagesPerOp(t *testing.T) {
	before, _ := parseMetrics([]byte(scrapeBefore))
	after, _ := parseMetrics([]byte(scrapeAfter))
	layers := map[string]float64{}
	// 20 requests in the window with a mean client latency of 0.5ms.
	if err := serverStages(layers, before, after, 20, 0.5); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"server.queue_ms": 0.005, "server.parse_ms": 0.125, "server.solve_ms": 0.1,
		"server.render_ms": 0.025, "server.http_ms": 0.245,
	}
	for k, v := range want {
		if math.Abs(layers[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, layers[k], v)
		}
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics([]byte("not json")); err == nil {
		t.Error("garbage parsed without error")
	}
}
