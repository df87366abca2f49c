package fishstore

import (
	"fmt"
	"sync/atomic"

	"fishstore/internal/record"
)

// TruncateUntil logically drops the log prefix below addr: subsequent scans
// clamp their range to the new begin address and stale hash-chain tails
// below it are treated as terminated. This is FishStore's retention story —
// once older raw data has migrated downstream (§1.4), the prefix can be
// reclaimed. addr must be a record boundary (use an address previously
// observed from TailAddress or Record.Address).
//
// Truncation is logical: device space is the caller's to reclaim (e.g. by
// switching files at a truncation point). It never touches in-memory pages.
func (s *Store) TruncateUntil(addr uint64) error {
	if addr > s.log.TailAddress() {
		return fmt.Errorf("fishstore: truncation point %d beyond tail %d", addr, s.log.TailAddress())
	}
	for {
		old := s.truncatedUntil.Load()
		if addr <= old {
			return nil // monotonic
		}
		if s.truncatedUntil.CompareAndSwap(old, addr) {
			s.invalidateReadCaches(addr)
			return nil
		}
	}
}

// invalidateReadCaches drops read-path cache state below the new truncation
// point. Pages straddling the boundary stay cached — clampRange already keeps
// scans above the floor, so their below-floor bytes are never surfaced.
func (s *Store) invalidateReadCaches(floor uint64) {
	floorPage := s.log.PageOf(floor)
	if s.pcache != nil {
		s.pcache.InvalidateBelow(floorPage)
	}
}

// TruncatedUntil returns the current logical begin address (BeginAddress if
// never truncated).
func (s *Store) TruncatedUntil() uint64 {
	if t := s.truncatedUntil.Load(); t > s.BeginAddress() {
		return t
	}
	return s.BeginAddress()
}

// ChainFloor returns the address below which hash-chain pointers are treated
// as terminated rather than followed: the logical begin address after
// truncation. Chain tails pointing below the floor are not dangling — the
// records they reference have been logically reclaimed. Scans and the log
// verifier share this boundary.
func (s *Store) ChainFloor() uint64 { return s.TruncatedUntil() }

// Invalidate logically deletes the record at addr: its header's invalid bit
// is set atomically, so every subsequent scan, lookup, and subscription
// skips it while its chain links keep working for older records. Combined
// with appending a new version, this provides the append-and-invalidate
// update pattern the paper leaves as future work ("updates can also be
// supported with modifications to FishStore").
//
// The record must still be resident in the in-memory buffer (the immutable
// on-storage prefix cannot be patched); ErrNotResident is returned
// otherwise.
func (s *Store) Invalidate(addr uint64) error {
	g := s.epoch.Acquire()
	defer g.Release()
	if addr < s.log.HeadAddress() || addr >= s.log.TailAddress() {
		return ErrNotResident
	}
	hw := s.log.WordsAt(addr, 1)
	h := record.UnpackHeader(atomic.LoadUint64(&hw[0]))
	if h.SizeWords == 0 || h.Filler {
		return fmt.Errorf("fishstore: no record at %d", addr)
	}
	view := record.View{Words: s.log.WordsAt(addr, h.SizeWords)}
	view.SetInvalid()
	return nil
}

// ErrNotResident is returned by Invalidate for records already evicted to
// storage.
var ErrNotResident = errNotResident{}

type errNotResident struct{}

func (errNotResident) Error() string {
	return "fishstore: record no longer resident in the in-memory buffer"
}

// Update appends a new version of a record and logically deletes the old
// one — the append-and-invalidate update pattern (the paper defers in-place
// updates to future work; appending preserves the no-forward-link and
// zero-write-amplification invariants). The old record must still be
// resident (ErrNotResident otherwise). On success the new version is
// indexed under the currently active PSFs.
func (sess *Session) Update(oldAddr uint64, payload []byte) (IngestStats, error) {
	st, err := sess.Ingest([][]byte{payload})
	if err != nil {
		return st, err
	}
	if err := sess.store.Invalidate(oldAddr); err != nil {
		return st, fmt.Errorf("fishstore: new version appended but old not invalidated: %w", err)
	}
	return st, nil
}
