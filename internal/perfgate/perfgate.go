// Package perfgate compares benchmark result files against committed
// baselines and decides whether throughput regressed past a threshold.
//
// Both BENCH_ingest.json and BENCH_scan.json are arrays of objects carrying
// at least {"name": ..., "records_per_sec": ...}; the gate keys on those two
// fields and ignores the rest, so one comparator covers both schemas. A
// benchmark present in the baseline but missing from the current run is a
// failure (the regression gate must not pass because a benchmark silently
// stopped running); a benchmark present only in the current run is a
// warning — it has no baseline yet.
package perfgate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Entry is the subset of a benchmark result the gate cares about.
type Entry struct {
	Name          string  `json:"name"`
	RecordsPerSec float64 `json:"records_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// Delta is one benchmark's baseline-vs-current comparison.
type Delta struct {
	Name            string
	Baseline        float64 // records/sec in the baseline; 0 when new
	Current         float64 // records/sec in the current run; 0 when missing
	Ratio           float64 // Current / Baseline; 0 when either side is absent
	BaselineAllocs  float64 // allocs/op in the baseline; 0 when unrecorded
	CurrentAllocs   float64 // allocs/op in the current run
	Missing         bool    // in baseline, absent from current run
	New             bool    // in current run, absent from baseline
	Regressed       bool    // Current < Baseline × (1 − threshold)
	AllocsRegressed bool    // CurrentAllocs > BaselineAllocs × (1 + allocThreshold) + 2
}

// Report is the outcome of comparing one current file against one baseline.
type Report struct {
	Threshold      float64
	AllocThreshold float64
	Deltas         []Delta
}

// Failed reports whether any benchmark regressed past the threshold (in
// throughput or allocations) or went missing from the current run.
func (r *Report) Failed() bool {
	for _, d := range r.Deltas {
		if d.Regressed || d.AllocsRegressed || d.Missing {
			return true
		}
	}
	return false
}

// Load reads a benchmark result file — an array of objects with at least
// name and records_per_sec fields.
func Load(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Parse decodes a benchmark result array from r.
func Parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("perfgate: parse benchmark results: %w", err)
	}
	for i, e := range entries {
		if e.Name == "" {
			return nil, fmt.Errorf("perfgate: entry %d has no name", i)
		}
	}
	return entries, nil
}

// Compare diffs current against baseline. threshold is the tolerated
// fractional slowdown: with threshold 0.10, a benchmark fails when its
// current throughput is below 90% of the baseline. Allocation counts are
// compared with the same threshold (see CompareAlloc). Deltas are sorted by
// name so reports are stable.
func Compare(baseline, current []Entry, threshold float64) *Report {
	return CompareAlloc(baseline, current, threshold, threshold)
}

// CompareAlloc is Compare with an independent allocation threshold: a
// benchmark also fails when its allocs/op exceed baseline × (1 +
// allocThreshold) + 2. The +2 absolute grace keeps near-zero baselines from
// tripping on measurement noise (a stray background allocation), and a
// baseline of 0 allocs/op means the field predates allocation tracking —
// such entries are not gated.
func CompareAlloc(baseline, current []Entry, threshold, allocThreshold float64) *Report {
	if threshold < 0 {
		threshold = 0
	}
	if allocThreshold < 0 {
		allocThreshold = 0
	}
	cur := make(map[string]Entry, len(current))
	for _, e := range current {
		cur[e.Name] = e
	}
	seen := make(map[string]bool, len(baseline))
	rep := &Report{Threshold: threshold, AllocThreshold: allocThreshold}
	for _, b := range baseline {
		seen[b.Name] = true
		d := Delta{Name: b.Name, Baseline: b.RecordsPerSec, BaselineAllocs: b.AllocsPerOp}
		if c, ok := cur[b.Name]; ok {
			d.Current = c.RecordsPerSec
			d.CurrentAllocs = c.AllocsPerOp
			if b.RecordsPerSec > 0 {
				d.Ratio = c.RecordsPerSec / b.RecordsPerSec
				d.Regressed = c.RecordsPerSec < b.RecordsPerSec*(1-threshold)
			}
			if b.AllocsPerOp > 0 {
				d.AllocsRegressed = c.AllocsPerOp > b.AllocsPerOp*(1+allocThreshold)+2
			}
		} else {
			d.Missing = true
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, c := range current {
		if !seen[c.Name] {
			rep.Deltas = append(rep.Deltas, Delta{
				Name: c.Name, Current: c.RecordsPerSec, CurrentAllocs: c.AllocsPerOp, New: true})
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Name < rep.Deltas[j].Name })
	return rep
}

// Invariant is a cross-variant ordering that must hold WITHIN one benchmark
// run, independent of any baseline: the Faster benchmark's throughput must be
// at least (1 − Slack) × the Slower one's. The canonical instance is the
// adaptive prefetcher: a scan with prefetching enabled must never be slower
// than the same scan without it — if speculation can't win, it must collapse
// to the exact-read baseline, so losing to it means the cost model (Φ, §7.2)
// is mis-calibrated for the device.
type Invariant struct {
	Name   string  // label for reports
	Faster string  // benchmark that must not lose
	Slower string  // benchmark it is measured against
	Slack  float64 // tolerated shortfall fraction (0.10 = may be up to 10% slower)
}

// InvariantResult is one invariant's evaluation against a current run.
type InvariantResult struct {
	Invariant
	FasterRecPerSec float64
	SlowerRecPerSec float64
	Skipped         bool // one of the two benchmarks is absent from the run
	Violated        bool
}

// ScanInvariants returns the orderings enforced over BENCH_scan.json. The
// prefetch pair isolates §7.2 speculation: neither benchmark reads through
// the page cache, so the only difference between them is the adaptive
// window.
func ScanInvariants() []Invariant {
	return []Invariant{{
		Name:   "prefetch-not-a-pessimization",
		Faster: "BenchmarkScanIndexRawPrefetch",
		Slower: "BenchmarkScanIndexNoPrefetch",
		Slack:  0.10,
	}}
}

// IngestInvariants returns the orderings enforced over BENCH_ingest.json.
// The telemetry invariant is the workload-attribution layer's acceptance
// bar: ingest with the collector on (the default) may be at most 3% slower
// than the identical run with DisableTelemetry. The admission invariant is
// the resource governor's bar: an armed-but-unsaturated governor may cost at
// most 2% — its fast path is a few atomic adds per batch, so anything worse
// means the slow path leaked into the uncontended case.
func IngestInvariants() []Invariant {
	return []Invariant{{
		Name:   "telemetry-overhead-under-3pct",
		Faster: "BenchmarkIngestYelpTelemetry",
		Slower: "BenchmarkIngestYelpNoTelemetry",
		Slack:  0.03,
	}, {
		Name:   "admission-overhead-under-2pct",
		Faster: "BenchmarkIngestYelpLimits",
		Slower: "BenchmarkIngestYelpNoLimits",
		Slack:  0.02,
	}}
}

// CheckInvariants evaluates invs against one run's entries. Invariants whose
// benchmarks are absent are reported as skipped, not violated — Compare
// already fails the gate when a baselined benchmark goes missing.
func CheckInvariants(current []Entry, invs []Invariant) []InvariantResult {
	byName := make(map[string]float64, len(current))
	for _, e := range current {
		byName[e.Name] = e.RecordsPerSec
	}
	results := make([]InvariantResult, 0, len(invs))
	for _, inv := range invs {
		r := InvariantResult{Invariant: inv}
		f, fok := byName[inv.Faster]
		s, sok := byName[inv.Slower]
		if !fok || !sok {
			r.Skipped = true
		} else {
			r.FasterRecPerSec, r.SlowerRecPerSec = f, s
			r.Violated = f < s*(1-inv.Slack)
		}
		results = append(results, r)
	}
	return results
}

// WriteInvariants renders invariant results, one line each, and reports
// whether any was violated.
func WriteInvariants(w io.Writer, results []InvariantResult) (violated bool) {
	for _, r := range results {
		switch {
		case r.Skipped:
			fmt.Fprintf(w, "skip %-40s %s or %s absent from run\n", r.Name, r.Faster, r.Slower)
		case r.Violated:
			violated = true
			fmt.Fprintf(w, "FAIL %-40s %s %12.0f rec/s < %s %12.0f rec/s (slack %.0f%%)\n",
				r.Name, r.Faster, r.FasterRecPerSec, r.Slower, r.SlowerRecPerSec, r.Slack*100)
		default:
			fmt.Fprintf(w, "ok   %-40s %s %12.0f rec/s >= %s %12.0f rec/s\n",
				r.Name, r.Faster, r.FasterRecPerSec, r.Slower, r.SlowerRecPerSec)
		}
	}
	return violated
}

// Write renders the report as a human-readable table, one line per
// benchmark, with FAIL/MISS/new markers.
func (r *Report) Write(w io.Writer) {
	for _, d := range r.Deltas {
		switch {
		case d.Missing:
			fmt.Fprintf(w, "MISS %-40s baseline %12.0f rec/s, absent from current run\n", d.Name, d.Baseline)
		case d.New:
			fmt.Fprintf(w, "new  %-40s current %12.0f rec/s (no baseline)\n", d.Name, d.Current)
		case d.Regressed:
			fmt.Fprintf(w, "FAIL %-40s %12.0f -> %12.0f rec/s (%.1f%%, threshold %.1f%%)\n",
				d.Name, d.Baseline, d.Current, (d.Ratio-1)*100, r.Threshold*100)
		case d.AllocsRegressed:
			fmt.Fprintf(w, "FAIL %-40s %10.1f -> %10.1f allocs/op (threshold %.1f%% + 2)\n",
				d.Name, d.BaselineAllocs, d.CurrentAllocs, r.AllocThreshold*100)
		default:
			fmt.Fprintf(w, "ok   %-40s %12.0f -> %12.0f rec/s (%+.1f%%)\n",
				d.Name, d.Baseline, d.Current, (d.Ratio-1)*100)
		}
	}
}
