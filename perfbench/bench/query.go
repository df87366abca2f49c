package bench

import (
	"bytes"
	"fmt"

	"fishstore"
	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// querier runs one goroutine's read ops against a store, timing each and
// checking it against the oracle.
type querier struct {
	r   *run
	l   *layers // nil when untraced
	s   *slot   // the goroutine's slot; nil when untraced
	sim *storage.SimSSD
	st  *fishstore.Store
}

// scan runs a ScanAuto op. want < 0 skips the count check (ranges that
// grow while the op runs).
func (q *querier) scan(rc *recorder, k opKind, prop fishstore.Property, from, to uint64, want int64) {
	p := q.l.begin(q.s, k, q.sim)
	n, _, st, err := count(false, func(cb func(fishstore.Record) bool) (fishstore.ScanStats, error) {
		return q.st.Scan(prop, fishstore.ScanOptions{From: from, To: to, Mode: fishstore.ScanAuto}, cb)
	})
	d := q.l.end(q.s, k, p, q.sim, st, n, 0)
	switch {
	case err != nil:
		q.r.fail(rc, k, err)
	case want < 0:
		rc.ok(k, d)
	default:
		q.r.checkCount(rc, k, d, fmt.Sprintf("%s [%d,%d)", opNames[k], from, to), n, want)
	}
}

// lookupAll looks up every record of business id and checks their number.
func (q *querier) lookupAll(rc *recorder, biz psf.ID, id string, want int64) {
	prop := fishstore.PropertyString(biz, id)
	p := q.l.begin(q.s, opLookup, q.sim)
	n, _, st, err := count(false, func(cb func(fishstore.Record) bool) (fishstore.ScanStats, error) {
		return q.st.Lookup(prop, cb)
	})
	d := q.l.end(q.s, opLookup, p, q.sim, st, n, 0)
	if err != nil {
		q.r.fail(rc, opLookup, err)
		return
	}
	q.r.checkCount(rc, opLookup, d, "lookup "+id, n, want)
}

// lookupNewest looks up the newest record of business id and checks that
// it carries that id. The check reads the raw bytes, not pjson's view.
func (q *querier) lookupNewest(rc *recorder, biz psf.ID, id string) {
	prop := fishstore.PropertyString(biz, id)
	p := q.l.begin(q.s, opLookup, q.sim)
	n, first, st, err := count(true, func(cb func(fishstore.Record) bool) (fishstore.ScanStats, error) {
		return q.st.Lookup(prop, cb)
	})
	d := q.l.end(q.s, opLookup, p, q.sim, st, n, 0)
	if err != nil {
		q.r.fail(rc, opLookup, err)
		return
	}
	if n+q.r.cfg.OracleSkew != 1 || !bytes.Contains(first, []byte(`"business_id": "`+id+`"`)) {
		q.r.mismatch(rc, opLookup, "newest lookup %s: %d records, first %.80q", id, n, first)
		return
	}
	rc.ok(opLookup, d)
}
