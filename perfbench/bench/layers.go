package bench

import (
	"bytes"
	"math"
	"runtime"
	rm "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/parser"
	"fishstore/internal/parser/pjson"
	"fishstore/internal/storage"
	"fishstore/internal/trace"
)

// layers measures FishStore's layers from outside, at public boundaries:
// a parser.Factory wrapper around pjson, a device wrapper under
// storage.Instrumented, SimSSD's modeled clock, ScanStats, the store's
// Stats/IndexStats/CacheStats and the Go runtime. Spans go through the
// repository's own tracer; a finish hook folds them into self times.
type layers struct {
	tracer *trace.Tracer
	agg    spanAgg
	io     ioCounters

	mu    sync.Mutex
	bound map[uint64]*slot // by goroutine id
	all   []*slot          // every slot ever bound, for sums
}

// slot is one benchmark goroutine's view: the op span in flight (parent of
// the layer spans the op causes) and the parse calls its sessions made.
// Only the owning goroutine touches it.
type slot struct {
	cur        *trace.Span
	parseCalls int64
	allocs     [1]rm.Sample // heap objects allocated, read without allocating
	ops        [nOps]opSums // traced ops' deltas, by kind
}

func (s *slot) readAllocs() uint64 {
	rm.Read(s.allocs[:])
	return s.allocs[0].Value.Uint64()
}

// opSums accumulates per-op deltas of one op kind.
type opSums struct {
	ops, records, inputBytes, matches, parseCalls, allocs        int64
	reads, readBytes, readNanos, modeledNanos                    int64
	visited, hops, prefetchHits, fullScanBytes, planned, indexed int64
	bloomSkipped                                                 int64
}

func (o *opSums) add(x opSums) {
	o.ops += x.ops
	o.records += x.records
	o.inputBytes += x.inputBytes
	o.matches += x.matches
	o.parseCalls += x.parseCalls
	o.allocs += x.allocs
	o.reads += x.reads
	o.readBytes += x.readBytes
	o.readNanos += x.readNanos
	o.modeledNanos += x.modeledNanos
	o.visited += x.visited
	o.hops += x.hops
	o.prefetchHits += x.prefetchHits
	o.fullScanBytes += x.fullScanBytes
	o.planned += x.planned
	o.indexed += x.indexed
	o.bloomSkipped += x.bloomSkipped
}

// sums merges the op sums of every slot. Call it once the goroutines that
// own the slots have finished.
func (l *layers) sums() [nOps]opSums {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [nOps]opSums
	for _, s := range l.all {
		for k := range out {
			out[k].add(s.ops[k])
		}
	}
	return out
}

func newLayers() *layers {
	l := &layers{tracer: trace.New(trace.Options{BufferSize: 1 << 15}), bound: map[uint64]*slot{}}
	l.agg.covered = map[uint64]cover{}
	l.agg.byName = map[string]*nameAgg{}
	l.tracer.SetOnFinish(l.agg.finish)
	l.tracer.SetEnabled(false)
	return l
}

// options installs the layer boundaries into o: the parse wrapper, and the
// span and Instrumented wrappers around dev (nil means the null device).
// Instrumented's Unwrap keeps a SimSSD's profile visible to the prefetcher.
func (l *layers) options(o fishstore.Options, dev storage.Device) fishstore.Options {
	if dev == nil {
		dev = storage.NewNull()
	}
	o.Parser = &parseFactory{inner: pjson.New(), l: l}
	o.Device = storage.NewInstrumented(&spanDevice{inner: dev, l: l}, &l.io)
	return o
}

// goid returns the calling goroutine's id, parsed from its stack header.
// It runs once per parser session and per device call, never per record.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// bind gives the calling goroutine a slot; unbind removes it.
func (l *layers) bind() *slot {
	s := &slot{}
	s.allocs[0].Name = "/gc/heap/allocs:objects"
	id := goid()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bound[id] = s
	l.all = append(l.all, s)
	return s
}

func (l *layers) unbind() {
	id := goid()
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.bound, id)
}

func (l *layers) current() *slot {
	id := goid()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bound[id]
}

// child starts a span under the calling goroutine's op span, or a root
// when the goroutine runs no op (background flushes).
func (l *layers) child(name string) *trace.Span {
	if !l.tracer.Enabled() {
		return nil
	}
	if s := l.current(); s != nil && s.cur != nil {
		return s.cur.Child(name)
	}
	return l.tracer.StartRoot(name)
}

// parseFactory wraps pjson so every Parse call is counted and spanned.
type parseFactory struct {
	inner parser.Factory
	l     *layers
}

func (f *parseFactory) Name() string { return f.inner.Name() }

func (f *parseFactory) NewSession(fields []string) (parser.Session, error) {
	s, err := f.inner.NewSession(fields)
	if err != nil {
		return nil, err
	}
	return &parseSession{inner: s, slot: f.l.current()}, nil
}

type parseSession struct {
	inner parser.Session
	slot  *slot // nil when created on a goroutine that runs no ops
}

func (s *parseSession) Parse(payload []byte) (*parser.Parsed, error) {
	if s.slot == nil {
		return s.inner.Parse(payload)
	}
	s.slot.parseCalls++
	sp := s.slot.cur.Child("pjson.parse")
	p, err := s.inner.Parse(payload)
	sp.End()
	return p, err
}

// spanDevice spans each device call. It sits under storage.Instrumented.
type spanDevice struct {
	inner storage.Device
	l     *layers
}

func (d *spanDevice) Unwrap() storage.Device { return d.inner }
func (d *spanDevice) Close() error           { return d.inner.Close() }

func (d *spanDevice) ReadAt(p []byte, off int64) (int, error) {
	sp := d.l.child("storage.read")
	n, err := d.inner.ReadAt(p, off)
	sp.End()
	return n, err
}

func (d *spanDevice) WriteAt(p []byte, off int64) (int, error) {
	sp := d.l.child("hlog.write")
	n, err := d.inner.WriteAt(p, off)
	sp.End()
	return n, err
}

// ioCounters is the storage.IOObserver behind Instrumented.
type ioCounters struct {
	reads, readBytes, readNanos    atomic.Int64
	writes, writeBytes, writeNanos atomic.Int64
}

func (c *ioCounters) ObserveRead(n int, d time.Duration) {
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	c.readNanos.Add(int64(d))
}

func (c *ioCounters) ObserveWrite(n int, d time.Duration) {
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	c.writeNanos.Add(int64(d))
}

// spanAgg folds finished spans into per-name totals and self times. A
// span's self time is its duration minus that of its children; children
// of one op run on the op's goroutine, one after another, so their sum is
// the time they cover.
type spanAgg struct {
	mu      sync.Mutex
	covered map[uint64]cover // open parent span id -> children so far
	byName  map[string]*nameAgg
}

type cover struct{ parse, other time.Duration }

type nameAgg struct {
	count                   int64
	total, self, parseChild time.Duration
}

func (a *spanAgg) finish(d trace.SpanData) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.covered[d.SpanID]
	delete(a.covered, d.SpanID)
	n := a.byName[d.Name]
	if n == nil {
		n = &nameAgg{}
		a.byName[d.Name] = n
	}
	n.count++
	n.total += d.Duration
	n.self += d.Duration - c.parse - c.other
	n.parseChild += c.parse
	if d.ParentID != 0 {
		pc := a.covered[d.ParentID]
		if d.Name == "pjson.parse" {
			pc.parse += d.Duration
		} else {
			pc.other += d.Duration
		}
		a.covered[d.ParentID] = pc
	}
}

func (a *spanAgg) get(name string) nameAgg {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.byName[name]; n != nil {
		return *n
	}
	return nameAgg{}
}

// opProbe is the state captured when an op starts.
type opProbe struct {
	start      time.Time
	sp         *trace.Span
	parseCalls int64
	reads      int64
	readBytes  int64
	readNanos  int64
	sim        storage.Stats
	allocs     uint64
}

// begin opens an op span on the goroutine's slot and snapshots the
// counters the op's deltas are taken from. Untraced (nil layers or the
// tracer off) it only reads the clock.
func (l *layers) begin(s *slot, k opKind, sim *storage.SimSSD) opProbe {
	if l == nil || !l.tracer.Enabled() {
		return opProbe{start: time.Now()}
	}
	p := opProbe{
		parseCalls: s.parseCalls,
		reads:      l.io.reads.Load(),
		readBytes:  l.io.readBytes.Load(),
		readNanos:  l.io.readNanos.Load(),
		allocs:     s.readAllocs(),
	}
	if sim != nil {
		p.sim = sim.Stats()
	}
	p.sp = l.tracer.StartRoot(spanName[k])
	s.cur = p.sp
	p.start = time.Now()
	return p
}

var spanName = [nOps]string{"session.ingest", "scan.lookup", "scan.index", "scan.adaptive", "check"}

// end closes the op started by begin and returns its wall time. When the
// op was traced, its deltas are added to the slot's sums; st is the op's
// ScanStats (zero for ingest), n its records or matches and in its input
// bytes.
func (l *layers) end(s *slot, k opKind, p opProbe, sim *storage.SimSSD, st fishstore.ScanStats, n, in int64) time.Duration {
	d := time.Since(p.start)
	if p.sp == nil {
		return d
	}
	s.cur = nil
	p.sp.End()
	o := &s.ops[k]
	o.ops++
	if k == opIngest {
		o.records += n
		o.inputBytes += in
	} else {
		o.matches += n
	}
	o.parseCalls += s.parseCalls - p.parseCalls
	o.allocs += int64(s.readAllocs() - p.allocs)
	o.reads += l.io.reads.Load() - p.reads
	o.readBytes += l.io.readBytes.Load() - p.readBytes
	o.readNanos += l.io.readNanos.Load() - p.readNanos
	if sim != nil {
		now := sim.Stats()
		// Concurrent flushes charge the same clock; take out their modeled
		// cost (no random latency for sequential writes).
		prof := sim.Profile()
		w := float64(now.Writes-p.sim.Writes)*float64(prof.SyscallCost) +
			float64(now.WriteBytes-p.sim.WriteBytes)/prof.SeqBandwidth*1e9
		o.modeledNanos += now.SimTimeNanos - p.sim.SimTimeNanos - int64(math.Round(w))
	}
	o.visited += st.Visited
	o.hops += st.IndexHops
	o.prefetchHits += st.PrefetchHits
	o.fullScanBytes += st.FullScanBytes
	o.bloomSkipped += st.BloomSkippedPages
	for _, seg := range st.Plan {
		o.planned += int64(seg.To - seg.From)
		if seg.Indexed {
			o.indexed += int64(seg.To - seg.From)
		}
	}
	return d
}

// runtimeSample is a read of the Go runtime counters the benchmark uses.
type runtimeSample struct {
	allocs        uint64  // heap objects allocated, cumulative
	gcCPU, cpu    float64 // cpu-seconds, cumulative
	liveHeapBytes uint64  // live heap at the last GC
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]rm.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rm.Read(s)
	return runtimeSample{
		allocs:        s[0].Value.Uint64(),
		gcCPU:         s[1].Value.Float64(),
		cpu:           s[2].Value.Float64(),
		liveHeapBytes: s[3].Value.Uint64(),
	}
}

// heapPeak is the largest live heap seen at the run's checkpoints.
type heapPeak struct{ max uint64 }

// checkpoint collects garbage and records the live heap: what the workload
// holds at that point, inputs included, free of garbage.
func (h *heapPeak) checkpoint() {
	runtime.GC()
	h.max = max(h.max, readRuntime().liveHeapBytes)
}

func (h *heapPeak) maxMB() float64 { return float64(h.max) / (1 << 20) }

// phaseSnap is a read of the window-level counters a phase is measured by.
type phaseSnap struct {
	rt                             runtimeSample
	writes, writeBytes, writeNanos int64
	cache                          fishstore.CacheSnapshot
}

// snapPhase reads the counters; st, when not nil, adds its caches.
func (l *layers) snapPhase(st *fishstore.Store) phaseSnap {
	p := phaseSnap{
		rt:         readRuntime(),
		writes:     l.io.writes.Load(),
		writeBytes: l.io.writeBytes.Load(),
		writeNanos: l.io.writeNanos.Load(),
	}
	if st != nil {
		p.cache = st.CacheStats()
	}
	return p
}

// phaseDelta is what happened between two phaseSnaps.
type phaseDelta struct {
	allocs                         int64
	gcCPU, cpu                     float64
	writes, writeBytes, writeNanos int64
	pcHits, pcMisses               int64
	pcFills, pcEvictions           int64
	hotHits, hotMisses             int64
}

func diffPhase(a, b phaseSnap) phaseDelta {
	pa, pb := a.cache.PageCache, b.cache.PageCache
	ha, hb := a.cache.HotChains, b.cache.HotChains
	return phaseDelta{
		allocs:      int64(b.rt.allocs - a.rt.allocs),
		gcCPU:       b.rt.gcCPU - a.rt.gcCPU,
		cpu:         b.rt.cpu - a.rt.cpu,
		writes:      b.writes - a.writes,
		writeBytes:  b.writeBytes - a.writeBytes,
		writeNanos:  b.writeNanos - a.writeNanos,
		pcHits:      pb.Hits - pa.Hits,
		pcMisses:    pb.Misses - pa.Misses,
		pcFills:     pb.Fills - pa.Fills,
		pcEvictions: pb.Evictions - pa.Evictions,
		hotHits:     hb.Hits - ha.Hits,
		hotMisses:   hb.Misses - ha.Misses,
	}
}
