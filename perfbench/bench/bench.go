// Package bench is FishStore's repository benchmark: three workloads
// (ingest, retrieve, mixed) driven through the public fishstore API in one
// process, every answer checked against an oracle that does not use the
// parser under test, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. BENCHMARK.json at the repository root declares
// the metrics this package prints.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/psf"
)

// Sizes fixes the amount of data each workload holds. Default is the
// benchmark; Tiny is the self-test's scaled-down copy.
type Sizes struct {
	IngestPoolBytes   int // distinct records ingest cycles through
	ProbeTailBytes    int // ingest's post-window probe tail
	RetrieveBytes     int // retrieve's store
	MixedPrefillBytes int // mixed's store before the window
	MixedPoolBytes    int // distinct records mixed cycles through
	SetupRepeats      int // set-ups per run; setup_s is their median
}

// Default returns the benchmark's sizes.
func Default() Sizes {
	return Sizes{
		IngestPoolBytes:   256 << 20,
		ProbeTailBytes:    8 << 20,
		RetrieveBytes:     128 << 20,
		MixedPrefillBytes: 64 << 20,
		MixedPoolBytes:    64 << 20,
		SetupRepeats:      5,
	}
}

// Tiny returns sizes small enough for the self-test. The retrieve store
// still spills past the in-memory log.
func Tiny() Sizes {
	return Sizes{
		IngestPoolBytes:   2 << 20,
		ProbeTailBytes:    256 << 10,
		RetrieveBytes:     24 << 20,
		MixedPrefillBytes: 20 << 20,
		MixedPoolBytes:    1 << 20,
		SetupRepeats:      1,
	}
}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Window   time.Duration // measured time
	Trace    bool          // per-layer metrics from a traced run
	// TraceOut receives the traced run's spans as Chrome trace JSON.
	TraceOut string
	Sizes    Sizes
	// OracleSkew is added to every expected scan count; non-zero only in
	// the self-test, which checks that a wrong oracle fails ops.
	OracleSkew int64
	// Log receives diagnostics (first errors, mismatches); nil discards.
	Log io.Writer
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Workloads lists the workload names Run accepts.
var Workloads = []string{"ingest", "retrieve", "mixed"}

// Run executes one workload.
func Run(cfg Config) (Result, error) {
	if cfg.Window <= 0 {
		return Result{}, errors.New("bench: window must be positive")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &run{cfg: cfg}
	var err error
	switch cfg.Workload {
	case "ingest":
		err = r.ingest()
	case "retrieve":
		err = r.retrieve()
	case "mixed":
		err = r.mixed()
	default:
		return Result{}, fmt.Errorf("bench: unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return Result{}, err
	}
	return r.result(), nil
}

// op kinds, in the order their names are printed.
type opKind int

const (
	opIngest opKind = iota
	opLookup
	opScanIndex
	opScanAdaptive
	opCheck
	nOps
)

var opNames = [nOps]string{"ingest", "lookup", "scan_index", "scan_adaptive", "check"}

// queryOps are the read ops per-op metrics are split by.
var queryOps = []opKind{opLookup, opScanIndex, opScanAdaptive}

// recorder holds one goroutine's op outcomes; merge combines them.
type recorder struct {
	lat       [nOps][]float64 // seconds
	attempted [nOps]int64
	failed    [nOps]int64
	late      []float64 // open-loop start minus due time, seconds
}

func (rc *recorder) ok(k opKind, d time.Duration) {
	rc.attempted[k]++
	rc.lat[k] = append(rc.lat[k], d.Seconds())
}

func (rc *recorder) merge(o *recorder) {
	for k := range rc.lat {
		rc.lat[k] = append(rc.lat[k], o.lat[k]...)
		rc.attempted[k] += o.attempted[k]
		rc.failed[k] += o.failed[k]
	}
	rc.late = append(rc.late, o.late...)
}

// run is the state of one Run call.
type run struct {
	cfg Config

	mu     sync.Mutex // guards rec, load, other and logged
	rec    [2]recorder
	load   [2]recorder // retrieve's store loads, which give its ingest metrics
	other  [2]recorder // ops counted but not timed: checks, other loads
	logged int

	mismatches atomic.Int64
	setup      []float64 // seconds per set-up
	peak       heapPeak

	// End-to-end values a workload fills in.
	ingestBytes   int64
	ingestSeconds float64
	logPerInput   float64

	layerMetrics map[string]Metric // traced runs
}

// fail counts a failed op and logs the first few causes.
func (r *run) fail(rc *recorder, k opKind, err error) {
	rc.attempted[k]++
	rc.failed[k]++
	r.logf("%s failed: %v", opNames[k], err)
}

// mismatch counts an oracle mismatch as a failed op.
func (r *run) mismatch(rc *recorder, k opKind, format string, args ...any) {
	r.mismatches.Add(1)
	r.fail(rc, k, fmt.Errorf("oracle mismatch: "+format, args...))
}

// checkCount records an op whose result count is checked against the
// oracle: ok when got equals want plus the configured skew.
func (r *run) checkCount(rc *recorder, k opKind, d time.Duration, what string, got, want int64) {
	want += r.cfg.OracleSkew
	if got != want {
		r.mismatch(rc, k, "%s: got %d records, want %d", what, got, want)
		return
	}
	rc.ok(k, d)
}

func (r *run) logf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.logged < 20 {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
	r.logged++
}

// addRecorders merges a goroutine's outcomes, by window half, into dst.
func (r *run) addRecorders(dst *[2]recorder, rcs *[2]recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst[0].merge(&rcs[0])
	dst[1].merge(&rcs[1])
}

// timedSetup runs fn and records its duration as one set-up sample.
func (r *run) timedSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	r.setup = append(r.setup, time.Since(start).Seconds())
	return err
}

func (r *run) result() Result {
	res := Result{Correct: r.mismatches.Load() == 0, Metrics: map[string]Metric{}}
	for _, rc := range []*recorder{&r.rec[0], &r.rec[1], &r.load[0], &r.load[1], &r.other[0], &r.other[1]} {
		for k := range rc.attempted {
			res.Attempted += rc.attempted[k]
			res.Failed += rc.failed[k]
		}
	}
	if r.cfg.Trace {
		res.Metrics = r.layerMetrics
		return res
	}
	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }
	ing := &r.rec[0]
	if len(r.load[0].lat[opIngest]) > 0 {
		ing = &r.load[0]
	}
	q := &r.rec[0]
	put("setup_s", "s", median(r.setup))
	put("ingest_mb_per_s", "MB/s", ratio(float64(r.ingestBytes)/(1<<20), r.ingestSeconds))
	put("ingest_batch_ms_p50", "ms", 1e3*quantile(ing.lat[opIngest], 0.50))
	put("ingest_batch_ms_p75", "ms", 1e3*quantile(ing.lat[opIngest], 0.75))
	put("lookup_us_p50", "us", 1e6*quantile(q.lat[opLookup], 0.50))
	put("lookup_us_p95", "us", 1e6*quantile(q.lat[opLookup], 0.95))
	put("scan_index_ms_p50", "ms", 1e3*quantile(q.lat[opScanIndex], 0.50))
	put("scan_index_ms_p90", "ms", 1e3*quantile(q.lat[opScanIndex], 0.90))
	put("scan_adaptive_ms_p50", "ms", 1e3*quantile(q.lat[opScanAdaptive], 0.50))
	put("scan_adaptive_ms_p90", "ms", 1e3*quantile(q.lat[opScanAdaptive], 0.90))
	put("log_bytes_per_input_byte", "ratio", r.logPerInput)
	put("peak_heap_mb", "MB", r.peak.maxMB())
	put("ok_op_ratio", "ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)))
	return res
}

// window is a workload's measured time. A traced run splits it in two
// halves: untraced, then traced; an op belongs to the half it starts in.
type window struct {
	mid, end time.Time // mid == end when untraced
	l        *layers
	st       *fishstore.Store // whose caches the traced half reads; may be nil
	once     sync.Once
	before   phaseSnap
}

// newWindow starts a window of length d. Every window starts from a
// collected heap, measured as a peak-heap checkpoint.
func (r *run) newWindow(l *layers, st *fishstore.Store, d time.Duration) *window {
	r.peak.checkpoint()
	now := time.Now()
	w := &window{end: now.Add(d), l: l, st: st}
	w.mid = w.end
	if l != nil {
		w.mid = now.Add(d / 2)
	}
	return w
}

// next reports whether an op may start now, and in which half. The first
// op of the traced half turns the tracer on.
func (w *window) next() (half int, ok bool) {
	now := time.Now()
	if !now.Before(w.end) {
		return 0, false
	}
	if now.Before(w.mid) {
		return 0, true
	}
	w.once.Do(w.enter)
	return 1, true
}

func (w *window) enter() {
	w.before = w.l.snapPhase(w.st)
	w.l.tracer.SetEnabled(true)
}

// close turns the tracer off and returns the traced half's counters.
func (w *window) close() phaseDelta {
	if w.l == nil {
		return phaseDelta{}
	}
	w.once.Do(w.enter)
	w.l.tracer.SetEnabled(false)
	return diffPhase(w.before, w.l.snapPhase(w.st))
}

// quantile returns the nearest-rank q-quantile of xs, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// count runs a scan or lookup through do and counts its matches,
// keeping the first; with firstOnly it stops after the first match.
func count(firstOnly bool, do func(cb func(fishstore.Record) bool) (fishstore.ScanStats, error)) (int64, []byte, fishstore.ScanStats, error) {
	var n int64
	var first []byte
	st, err := do(func(rec fishstore.Record) bool {
		if n == 0 {
			first = rec.Payload
		}
		n++
		return !firstOnly
	})
	return n, first, st, err
}

// register registers defs and returns their ids in order.
func register(s *fishstore.Store, defs ...psf.Definition) ([]psf.ID, error) {
	ids := make([]psf.ID, len(defs))
	for i, d := range defs {
		id, _, err := s.RegisterPSF(d)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", d.Name, err)
		}
		ids[i] = id
	}
	return ids, nil
}

// closeStore closes s, reporting a failure on stderr: a close error does
// not change any measured value.
func closeStore(s *fishstore.Store) {
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close store:", err)
	}
}
