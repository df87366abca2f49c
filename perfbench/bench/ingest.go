package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fishstore"
	"fishstore/internal/introspect"
	"fishstore/internal/psf"
)

const (
	// ingestSessions is the ingest workload's concurrent sessions: one per
	// vCPU of the 2-vCPU host the benchmark was sized on.
	ingestSessions = 2
	// ingestBuckets is its Options.TableBuckets: the default 1<<16 cannot
	// hold the distinct properties of a 256 MB pass (see DESIGN.md).
	ingestBuckets = 1 << 18
	// A probe round: one adaptive scan, then index scans and lookups.
	probeIndexScans = 10
	probeLookups    = 500
)

// ingest: a write-only closed loop. ingestSessions sessions ingest 64-record
// batches from a pool of distinct records into a store on the null device
// with the Table-1 Yelp PSFs; each pass over the pool goes into a fresh
// store, so every record is new to the index. After the window, a probe
// ingests a known tail into the last store and queries it in memory.
func (r *run) ingest() error {
	sz := r.cfg.Sizes
	pool := genBatches(subSeed(r.cfg.Seed, 1), sz.IngestPoolBytes)
	tail := genBatches(subSeed(r.cfg.Seed, 3), sz.ProbeTailBytes)
	tailFacts, err := oracle(tail)
	if err != nil {
		return err
	}
	var l *layers
	if r.cfg.Trace {
		l = newLayers()
	}
	open := func() (*fishstore.Store, error) {
		opts := fishstore.Options{TableBuckets: ingestBuckets}
		if l != nil {
			opts = l.options(opts, nil)
		}
		var st *fishstore.Store
		err := r.timedSetup(func() error {
			var err error
			if st, err = fishstore.Open(opts); err != nil {
				return err
			}
			_, err = register(st, yelpTable1()...)
			return err
		})
		if err != nil && st != nil {
			closeStore(st)
		}
		return st, err
	}
	// Set up before the window as every pass does in it: set-up time is
	// the median of all of them.
	for i := 0; i < sz.SetupRepeats; i++ {
		st, err := open()
		if err != nil {
			return err
		}
		closeStore(st)
	}

	var st *fishstore.Store
	var idx introspect.IndexSnapshot // at the end of the last full pass
	var appended, ingested int64
	w := r.newWindow(l, nil, r.cfg.Window)
	for {
		if _, ok := w.next(); !ok {
			break
		}
		if st != nil {
			closeStore(st)
			st = nil
			runtime.GC() // the closed store's memory is not charged to the next pass
		}
		if st, err = open(); err != nil {
			return err
		}
		start := time.Now()
		recs, bytes, complete := r.ingestPass(st, pool, w, l)
		r.ingestSeconds += time.Since(start).Seconds()
		stats := st.Stats()
		r.checkCount(&r.other[0], opCheck, 0, "ingested records", stats.IngestedRecords, recs)
		appended += int64(stats.TotalAppendedBytes)
		ingested += stats.IngestedBytes
		r.ingestBytes += bytes
		if complete {
			idx = st.IndexStats()
		}
	}
	ingPhase := w.close()
	// The pool and a full store are the most ingest holds. The pool is
	// not used past here, so the probe's collections mark only the store.
	r.peak.checkpoint()
	r.logPerInput = ratio(float64(appended), float64(ingested))
	if st == nil {
		return fmt.Errorf("ingest: window too short for one pass")
	}
	defer closeStore(st)
	qryPhase, err := r.probe(st, l, tail, tailFacts)
	if err != nil {
		return err
	}
	if l != nil {
		if idx.Buckets == 0 {
			idx = st.IndexStats()
		}
		r.layerMetrics = layerReport(l, ingPhase, qryPhase, idx, &r.rec, &r.rec)
		return r.writeTrace(l)
	}
	return nil
}

// ingestPass runs the ingest workers over one store until the pool is
// used up or the window ends. It returns the records and bytes the store
// acknowledged and whether the whole pool went in.
func (r *run) ingestPass(st *fishstore.Store, pool [][][]byte, w *window, l *layers) (recs, bytes int64, complete bool) {
	var next, recsN, bytesN atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < ingestSessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s *slot
			if l != nil {
				s = l.bind()
				defer l.unbind()
			}
			sess := st.NewSession()
			defer sess.Close()
			var rcs [2]recorder
			defer r.addRecorders(&r.rec, &rcs)
			for {
				h, ok := w.next()
				if !ok {
					stopped.Store(true)
					return
				}
				j := next.Add(1) - 1
				if j >= int64(len(pool)) {
					return
				}
				b := pool[j]
				size := sizeOf(b)
				p := l.begin(s, opIngest, nil)
				is, err := sess.Ingest(b)
				d := l.end(s, opIngest, p, nil, fishstore.ScanStats{}, int64(is.Records), size)
				// A failed batch may have ingested a prefix; the count
				// check compares against what the store acknowledged.
				recsN.Add(int64(is.Records))
				if err != nil {
					r.fail(&rcs[h], opIngest, err)
					continue
				}
				bytesN.Add(size)
				rcs[h].ok(opIngest, d)
			}
		}()
	}
	wg.Wait()
	return recsN.Load(), bytesN.Load(), !stopped.Load()
}

// probe ingests tail into st with one session, registering a second
// `useful > 10` PSF at its midpoint, then queries the tail, which is all
// in memory: newest-match lookups of its business ids, ScanAuto of `good`
// over it (index) and of the new PSF (full-scan half, index half).
func (r *run) probe(st *fishstore.Store, l *layers, tail [][][]byte, fs [][]facts) (phaseDelta, error) {
	q := &querier{r: r, l: l, st: st}
	if l != nil {
		q.s = l.bind()
		defer l.unbind()
	}
	var rcs [2]recorder
	defer r.addRecorders(&r.rec, &rcs)
	sess := st.NewSession()
	defer sess.Close()
	from := st.TailAddress()
	var recent psf.ID
	for i, b := range tail {
		if i == len(tail)/2 {
			ids, err := register(st, psf.MustPredicate("useful_recent", usefulSrc))
			if err != nil {
				return phaseDelta{}, err
			}
			recent = ids[0]
		}
		if _, err := sess.Ingest(b); err != nil {
			r.fail(&rcs[0], opIngest, err)
			continue
		}
		rcs[0].attempted[opIngest]++
	}
	to := st.TailAddress()
	biz, okB := st.PSFByName("proj(business_id)")
	goodID, okG := st.PSFByName("good")
	if !okB || !okG {
		return phaseDelta{}, fmt.Errorf("probe: Table-1 PSFs not registered")
	}
	good := fishstore.PropertyBool(goodID, true)
	useful := fishstore.PropertyBool(recent, true)
	wantGood, wantUseful := tally(fs, 0, len(fs))
	zipf := newZipfIDs(subSeed(r.cfg.Seed, 2), bizCounts(fs, 0, len(fs)))

	// Rounds of one adaptive scan, index scans and lookups, so a slow
	// moment touches every op alike, for half the window.
	w := r.newWindow(l, st, r.cfg.Window/2)
rounds:
	for {
		h, ok := w.next()
		if !ok {
			break
		}
		q.scan(&rcs[h], opScanAdaptive, useful, from, to, wantUseful)
		for i := 0; i < probeIndexScans; i++ {
			if h, ok = w.next(); !ok {
				break rounds
			}
			q.scan(&rcs[h], opScanIndex, good, from, to, wantGood)
		}
		for i := 0; i < probeLookups; i++ {
			if h, ok = w.next(); !ok {
				break rounds
			}
			q.lookupNewest(&rcs[h], biz, bizString(zipf.next()))
		}
	}
	return w.close(), nil
}
