// Package pubordertest seeds reproductions of the publication-ordering bug
// classes fishlint's puborder analyzer guards against: plain writes to an
// object after it has been atomically published (the reader can observe the
// pre-write value — the store is the release fence), plain writes through an
// object acquired from an atomic load (it is shared by construction), and
// blocking calls while a sync.Mutex is held (every other locker stalls for
// the full latency). These are the exact shapes of the pagecache fill and
// chain-splice paths.
package pubordertest

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

type entry struct {
	key  uint64
	hits uint64
	next *entry
}

type table struct {
	head atomic.Pointer[entry]
	raw  unsafe.Pointer
	mu   sync.Mutex
}

// publishThenWrite initializes after the Store: readers that already loaded
// the pointer see key == 0.
func publishThenWrite(t *table, k uint64) {
	e := &entry{}
	t.head.Store(e)
	e.key = k // want puborder "after it was published"
}

// initThenPublish is the correct order: every field write happens before the
// atomic store publishes the pointer.
func initThenPublish(t *table, k uint64) {
	e := &entry{}
	e.key = k
	e.next = t.head.Load()
	t.head.Store(e)
}

// publishUnsafe publishes through the package-level sync/atomic functions and
// an unsafe.Pointer conversion; the ordering obligation is the same.
func publishUnsafe(t *table, k uint64) {
	e := new(entry)
	atomic.StorePointer(&t.raw, unsafe.Pointer(e))
	e.key = k // want puborder "after it was published"
}

// casPublish publishes via CompareAndSwap: on success the new pointer is
// visible to every reader, so the follow-up write races.
func casPublish(t *table, k uint64) {
	e := &entry{key: k}
	if atomic.CompareAndSwapPointer(&t.raw, nil, unsafe.Pointer(e)) {
		e.next = nil // want puborder "after it was published"
	}
}

// mutateLoaded writes through a pointer obtained from an atomic load: the
// object is shared with concurrent readers and the publisher.
func mutateLoaded(t *table) {
	cur := t.head.Load()
	if cur == nil {
		return
	}
	cur.hits++ // want puborder "acquired from"
}

// copyOnWrite is the sanctioned fix for mutateLoaded: build a private copy,
// mutate it, and re-publish.
func copyOnWrite(t *table) {
	cur := t.head.Load()
	if cur == nil {
		return
	}
	fresh := &entry{key: cur.key, hits: cur.hits + 1}
	t.head.Store(fresh)
}

// reassignClears gives the local a fresh private value after the load; the
// subsequent write is to the private object, not the shared one.
func reassignClears(t *table) {
	cur := t.head.Load()
	cur = &entry{}
	cur.key = 1
	t.head.Store(cur)
}

// sleepUnderLock holds the table mutex across a sleep.
func sleepUnderLock(t *table) {
	t.mu.Lock()
	time.Sleep(time.Millisecond) // want puborder "while mutex"
	t.mu.Unlock()
}

// deferredUnlockStillHolds releases by defer, so the lock is held for the
// whole body — including the channel receive.
func deferredUnlockStillHolds(t *table, ch chan int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-ch // want puborder "channel receive"
}

// unlockThenSleep releases before blocking: no finding.
func unlockThenSleep(t *table) {
	t.mu.Lock()
	t.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// branchLock models may-semantics at the join: the lock is taken on one
// branch only, but the post-join sleep must still be reported — on that path
// it really does sleep under the lock.
func branchLock(t *table, cond bool) {
	if cond {
		t.mu.Lock()
	}
	time.Sleep(time.Millisecond) // want puborder "while mutex"
	if cond {
		t.mu.Unlock()
	}
}
