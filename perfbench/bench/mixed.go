package bench

import (
	"runtime"
	"sync"
	"time"

	"fishstore"
)

const (
	mixedRate        = 20 << 20 // open-loop ingest, bytes/s
	mixedRecentBytes = 32 << 20 // scan_index range behind the tail
)

// mixed: writes beside reads. One session ingests at a fixed rate (open
// loop) into a store prefilled like retrieve's, while one closed-loop
// client runs newest-match lookups and ScanAuto of `good` over the most
// recent bytes. After the window, with ingest stopped, ScanAuto of
// `useful` over a fixed range that straddles its registration point runs
// for a quarter of the window's length: beside the ingest, these long
// scans made the batch tail swing between runs.
func (r *run) mixed() error {
	sz := r.cfg.Sizes
	prefill := genBatches(subSeed(r.cfg.Seed, 1), sz.MixedPrefillBytes)
	pool := genBatches(subSeed(r.cfg.Seed, 4), sz.MixedPoolBytes)
	pf, err := oracle(prefill)
	if err != nil {
		return err
	}
	qf, err := oracle(pool)
	if err != nil {
		return err
	}
	n := len(prefill)
	lo, hi := n/4, 3*n/4
	prefillGood, _ := tally(pf, 0, n)
	_, wantUseful := tally(pf, lo, hi)
	zipf := newZipfIDs(subSeed(r.cfg.Seed, 2), bizCounts(pf, 0, n))

	var l *layers
	if r.cfg.Trace {
		l = newLayers()
	}
	var rs *readStore
	for i := 0; i < sz.SetupRepeats; i++ {
		if rs != nil {
			closeStore(rs.st)
			rs = nil
			runtime.GC() // each set-up starts from the same heap
		}
		var loads [2]recorder
		var loaded *readStore
		err := r.timedSetup(func() error {
			var err error
			loaded, err = r.loadReadStore(l, &loads, false, prefill, n/2, lo, hi)
			return err
		})
		r.addRecorders(&r.other, &loads)
		if err != nil {
			return err
		}
		rs = loaded
	}
	defer closeStore(rs.st)

	w := r.newWindow(l, rs.st, r.cfg.Window)
	var ackedGood int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ackedGood, r.ingestBytes = r.openLoop(rs, pool, qf, w, l)
	}()
	go func() {
		defer wg.Done()
		r.mixedQueries(rs, w, l, zipf)
	}()
	wg.Wait()
	phase := w.close()
	q := &querier{r: r, l: l, sim: rs.sim, st: rs.st}
	if l != nil {
		q.s = l.bind()
		defer l.unbind()
	}
	var rcs [2]recorder
	useful := fishstore.PropertyBool(rs.useful, true)
	for w := r.newWindow(l, rs.st, r.cfg.Window/4); ; {
		h, ok := w.next()
		if !ok {
			w.close()
			break
		}
		q.scan(&rcs[h], opScanAdaptive, useful, rs.fromTail, rs.toTail, wantUseful)
	}
	r.addRecorders(&r.rec, &rcs)
	r.ingestSeconds = r.cfg.Window.Seconds()
	stats := rs.st.Stats()
	r.logPerInput = ratio(float64(stats.TotalAppendedBytes), float64(stats.IngestedBytes))

	// Every acknowledged `good` record, prefill and window, is in the index.
	start := time.Now()
	got, _, _, err := count(false, func(cb func(fishstore.Record) bool) (fishstore.ScanStats, error) {
		return rs.st.Scan(fishstore.PropertyBool(rs.good, true), fishstore.ScanOptions{}, cb)
	})
	if err != nil {
		r.fail(&r.other[0], opCheck, err)
	} else {
		r.checkCount(&r.other[0], opCheck, time.Since(start), "final good scan", got, prefillGood+ackedGood)
	}
	r.peak.checkpoint()
	runtime.KeepAlive(prefill)
	runtime.KeepAlive(pool)
	if l != nil {
		r.layerMetrics = layerReport(l, phase, phase, rs.st.IndexStats(), &r.rec, &r.rec)
		return r.writeTrace(l)
	}
	return nil
}

// openLoop ingests pool batches, cycling, on a fixed schedule of
// mixedRate bytes per second until the window ends. A batch's
// latency runs from when it was due, so a stall also charges the batches
// queued behind it; how late each started is recorded too. It returns the
// `good` records and the bytes the store acknowledged.
func (r *run) openLoop(rs *readStore, pool [][][]byte, fs [][]facts, w *window, l *layers) (good, bytes int64) {
	var s *slot
	if l != nil {
		s = l.bind()
		defer l.unbind()
	}
	sess := rs.st.NewSession()
	defer sess.Close()
	var rcs [2]recorder
	defer r.addRecorders(&r.rec, &rcs)
	start := time.Now()
	var sent float64
	for i := 0; ; i++ {
		b := pool[i%len(pool)]
		due := start.Add(time.Duration(sent / mixedRate * 1e9))
		if !due.Before(w.end) {
			return good, bytes
		}
		time.Sleep(time.Until(due))
		h, ok := w.next()
		if !ok {
			return good, bytes
		}
		size := sizeOf(b)
		sent += float64(size)
		rcs[h].late = append(rcs[h].late, time.Since(due).Seconds())
		p := l.begin(s, opIngest, rs.sim)
		is, err := sess.Ingest(b)
		l.end(s, opIngest, p, rs.sim, fishstore.ScanStats{}, int64(is.Records), size)
		lat := time.Since(due)
		for _, f := range fs[i%len(pool)][:is.Records] {
			if f.good {
				good++
			}
		}
		if err != nil {
			r.fail(&rcs[h], opIngest, err)
			continue
		}
		bytes += size
		rcs[h].ok(opIngest, lat)
	}
}

// mixedQueries is mixed's closed-loop client.
func (r *run) mixedQueries(rs *readStore, w *window, l *layers, zipf *zipfIDs) {
	q := &querier{r: r, l: l, sim: rs.sim, st: rs.st}
	if l != nil {
		q.s = l.bind()
		defer l.unbind()
	}
	var rcs [2]recorder
	defer r.addRecorders(&r.rec, &rcs)
	good := fishstore.PropertyBool(rs.good, true)
	recent := uint64(mixedRecentBytes)
	for {
		for i := 0; i < lookupsPerScan; i++ {
			h, ok := w.next()
			if !ok {
				return
			}
			q.lookupNewest(&rcs[h], rs.biz, bizString(zipf.next()))
		}
		h, ok := w.next()
		if !ok {
			return
		}
		var from uint64
		if t := rs.st.TailAddress(); t > recent {
			from = t - recent
		}
		q.scan(&rcs[h], opScanIndex, good, from, 0, -1)
	}
}
