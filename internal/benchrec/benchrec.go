// Package benchrec is the one file format of the checked-in benchmark
// records (BENCH_*.json). gatorbench writes them; cmd/benchdiff pairs a
// regenerated record with its baseline metric by metric and applies each
// metric's gate. A gate is declared once, on the metric, where gatorbench
// measures it:
//
//   - Better is the direction of improvement: higher, lower, or equal
//     (the value must match the baseline exactly — a behaviour, not a
//     cost);
//   - Slack is the largest relative move in the bad direction the value
//     may make against the baseline;
//   - Limit is an absolute floor when Better is higher and an absolute
//     ceiling when it is lower.
//
// A metric with neither Slack nor Limit, and Better not equal, is
// recorded for trend reading and never gates.
package benchrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Better is a metric's direction of improvement.
type Better string

const (
	Higher Better = "higher"
	Lower  Better = "lower"
	Equal  Better = "equal"
)

// Metric is one named measurement and its gate.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	Better Better   `json:"better"`
	Slack  *float64 `json:"slack,omitempty"`
	Limit  *float64 `json:"limit,omitempty"`
}

// Record is one BENCH_*.json file: what produced it (Context: app sizes,
// worker counts, seeds) and what it measured.
type Record struct {
	GeneratedAt string            `json:"generatedAt"`
	Context     map[string]string `json:"context"`
	Metrics     []Metric          `json:"metrics"`
}

// Add appends metrics in measurement order.
func (r *Record) Add(ms ...Metric) { r.Metrics = append(r.Metrics, ms...) }

// HigherIsBetter, LowerIsBetter and MustEqual build ungated metrics;
// WithSlack and WithLimit add a gate.
func HigherIsBetter(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Better: Higher}
}

func LowerIsBetter(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Better: Lower}
}

func MustEqual(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Better: Equal}
}

// WithSlack gates the metric at a relative move of s against the baseline.
func (m Metric) WithSlack(s float64) Metric {
	m.Slack = &s
	return m
}

// WithLimit gates the metric at the absolute floor or ceiling l.
func (m Metric) WithLimit(l float64) Metric {
	m.Limit = &l
	return m
}

// Gated reports whether the metric can fail a diff.
func (m Metric) Gated() bool {
	return m.Better == Equal || m.Slack != nil || m.Limit != nil
}

// Validate rejects a record benchdiff could not gate soundly: no metrics,
// an unknown direction, a negative slack, a slack or limit on an equality
// metric, or a metric name used twice.
func (r *Record) Validate() error {
	if len(r.Metrics) == 0 {
		return fmt.Errorf("no metrics")
	}
	seen := map[string]bool{}
	for _, m := range r.Metrics {
		switch {
		case m.Name == "":
			return fmt.Errorf("metric with no name")
		case seen[m.Name]:
			return fmt.Errorf("metric %q declared twice", m.Name)
		case m.Better != Higher && m.Better != Lower && m.Better != Equal:
			return fmt.Errorf("metric %q: better %q: want higher, lower, or equal", m.Name, m.Better)
		case m.Better == Equal && (m.Slack != nil || m.Limit != nil):
			return fmt.Errorf("metric %q: an equal metric takes no slack or limit", m.Name)
		case m.Slack != nil && *m.Slack < 0:
			return fmt.Errorf("metric %q: negative slack %v", m.Name, *m.Slack)
		}
		seen[m.Name] = true
	}
	return nil
}

// Read loads and validates one record. Unknown fields are rejected, so a
// file in some other shape is an error rather than an empty record.
func Read(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// Write stamps the record with the current time, validates it, and
// writes it as indented JSON.
func Write(path string, r *Record) error {
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
