package bench

import (
	"runtime"
	"time"

	"fishstore"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// lookupsPerScan is the lookups retrieve and mixed run between scans.
const lookupsPerScan = 100

// readStore is a loaded store on a SimSSD over Mem and its PSFs.
type readStore struct {
	st                  *fishstore.Store
	sim                 *storage.SimSSD
	biz, good, useful   psf.ID
	fromTail, toTail    uint64 // [fromTail, toTail) holds batches [lo, hi)
	loadedBytes, loadNs int64
}

// loadReadStore opens a store with default Options on a SimSSD over Mem,
// registers the business_id projection and `good` before ingest and
// `useful` at batch usefulAt, and ingests batches with one session. It
// records the address range that holds batches [lo, hi).
func (r *run) loadReadStore(l *layers, rcs *[2]recorder, traced bool, batches [][][]byte, usefulAt, lo, hi int) (*readStore, error) {
	rs := &readStore{sim: storage.NewSimSSD(storage.NewMem(), storage.DefaultSSDProfile())}
	opts := fishstore.Options{Device: rs.sim}
	var s *slot
	if l != nil {
		opts = l.options(opts, rs.sim)
		s = l.bind()
		defer l.unbind()
	}
	st, err := fishstore.Open(opts)
	if err != nil {
		return nil, err
	}
	rs.st = st
	ids, err := register(st, psf.Projection("business_id"), psf.MustPredicate("good", goodSrc))
	if err != nil {
		closeStore(st)
		return nil, err
	}
	rs.biz, rs.good = ids[0], ids[1]
	if traced {
		l.tracer.SetEnabled(true)
		defer l.tracer.SetEnabled(false)
	}
	h := 0
	if traced {
		h = 1
	}
	sess := st.NewSession()
	defer sess.Close()
	start := time.Now()
	for i, b := range batches {
		if i == usefulAt {
			ids, err := register(st, psf.MustPredicate("useful", usefulSrc))
			if err != nil {
				closeStore(st)
				return nil, err
			}
			rs.useful = ids[0]
		}
		if i == lo {
			rs.fromTail = st.TailAddress()
		}
		if i == hi {
			rs.toTail = st.TailAddress()
		}
		size := sizeOf(b)
		p := l.begin(s, opIngest, rs.sim)
		_, err := sess.Ingest(b)
		d := l.end(s, opIngest, p, rs.sim, fishstore.ScanStats{}, int64(len(b)), size)
		if err != nil {
			r.fail(&rcs[h], opIngest, err)
			continue
		}
		rcs[h].ok(opIngest, d)
		rs.loadedBytes += size
	}
	if hi == len(batches) {
		rs.toTail = st.TailAddress()
	}
	rs.loadNs = int64(time.Since(start))
	return rs, nil
}

// retrieve: a read-only closed loop over a 128 MB store, twice the page
// cache and eight times the in-memory log. Lookups of Zipf-skewed
// business ids deliver all matches; whole-log ScanAuto of `good` runs on
// the index; whole-log ScanAuto of `useful`, registered at the midpoint
// of the load, full-scans the first half and uses the index for the rest.
func (r *run) retrieve() error {
	sz := r.cfg.Sizes
	batches := genBatches(subSeed(r.cfg.Seed, 1), sz.RetrieveBytes)
	fs, err := oracle(batches)
	if err != nil {
		return err
	}
	wantGood, wantUseful := tally(fs, 0, len(fs))
	counts := bizCounts(fs, 0, len(fs))
	zipf := newZipfIDs(subSeed(r.cfg.Seed, 2), counts)

	var l *layers
	if r.cfg.Trace {
		l = newLayers()
	}
	var rs *readStore
	var ingestPhase phaseDelta
	for i := 0; i < sz.SetupRepeats; i++ {
		if rs != nil {
			closeStore(rs.st)
			rs = nil
			runtime.GC() // each set-up starts from the same heap
		}
		// The last load of a traced run is traced: it gives the ingest
		// layers' numbers.
		traced := l != nil && i == sz.SetupRepeats-1
		var before phaseSnap
		if traced {
			before = l.snapPhase(nil)
		}
		var loaded *readStore
		err := r.timedSetup(func() error {
			var err error
			loaded, err = r.loadReadStore(l, &r.load, traced, batches, len(batches)/2, 0, len(batches))
			return err
		})
		if err != nil {
			return err
		}
		rs = loaded
		if traced {
			ingestPhase = diffPhase(before, l.snapPhase(nil))
		}
		r.ingestBytes += rs.loadedBytes
		r.ingestSeconds += float64(rs.loadNs) / 1e9
	}
	defer closeStore(rs.st)
	r.logPerInput = ratio(float64(rs.st.Stats().TotalAppendedBytes), float64(rs.st.Stats().IngestedBytes))

	q := &querier{r: r, l: l, sim: rs.sim, st: rs.st}
	if l != nil {
		q.s = l.bind()
		defer l.unbind()
	}
	// The op mix, repeated: each scan is followed by a round of lookups.
	scans := []struct {
		k    opKind
		prop fishstore.Property
		want int64
	}{
		{opScanAdaptive, fishstore.PropertyBool(rs.useful, true), wantUseful},
		{opScanIndex, fishstore.PropertyBool(rs.good, true), wantGood},
		{opScanIndex, fishstore.PropertyBool(rs.good, true), wantGood},
	}
	var rcs [2]recorder
	w := r.newWindow(l, rs.st, r.cfg.Window)
mix:
	for {
		for _, sc := range scans {
			h, ok := w.next()
			if !ok {
				break mix
			}
			q.scan(&rcs[h], sc.k, sc.prop, 0, 0, sc.want)
			for i := 0; i < lookupsPerScan; i++ {
				if h, ok = w.next(); !ok {
					break mix
				}
				id := zipf.next()
				q.lookupAll(&rcs[h], rs.biz, bizString(id), counts[id])
			}
		}
	}
	queryPhase := w.close()
	r.addRecorders(&r.rec, &rcs)
	r.peak.checkpoint()
	runtime.KeepAlive(batches)
	if l != nil {
		r.layerMetrics = layerReport(l, ingestPhase, queryPhase, rs.st.IndexStats(), &r.load, &r.rec)
		return r.writeTrace(l)
	}
	return nil
}
