package fishstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"fishstore/internal/psf"
	"fishstore/internal/storage"
)

// testChainReader builds a chainReader detached from any log, with the
// default SSD profile, for exercising the adaptation logic directly.
func testChainReader() *chainReader {
	profile := storage.DefaultSSDProfile()
	phi := uint64((profile.SyscallCost.Seconds() + profile.RandLatency.Seconds()) * profile.SeqBandwidth)
	return &chainReader{
		useAP:   true,
		tau:     phi,
		minWin:  4096,
		maxWin:  profile.QueueBytes,
		profile: profile,
		avgRec:  1024,
	}
}

func TestChainReaderWindowAdaptation(t *testing.T) {
	cr := testChainReader()
	recSize := 512

	// Walk a chain downward with gaps well below τ: the window must open and
	// grow geometrically up to the cap.
	addr := uint64(100 << 20)
	cr.adapt(addr, recSize)
	if cr.window != 0 {
		t.Fatalf("window opened after a single record: %d", cr.window)
	}
	prev := 0
	for i := 0; i < 16; i++ {
		addr -= uint64(recSize) + cr.tau/4 // gap = τ/4, locality
		cr.adapt(addr, recSize)
		if cr.window < prev {
			t.Fatalf("window shrank under locality: %d -> %d", prev, cr.window)
		}
		prev = cr.window
	}
	if cr.window == 0 {
		t.Fatal("window never opened under sustained locality")
	}
	if cr.window > cr.maxWin {
		t.Fatalf("window %d exceeds cap %d", cr.window, cr.maxWin)
	}
	if cr.window != cr.maxWin {
		t.Fatalf("window %d did not reach cap %d after 16 local hops", cr.window, cr.maxWin)
	}

	// One gap far above τ collapses speculation entirely.
	addr -= 4 * (cr.tau + uint64(cr.avgRec))
	cr.adapt(addr, recSize)
	if cr.window != 0 {
		t.Fatalf("window survived a non-local gap: %d", cr.window)
	}

	// Locality returning reopens it from the bottom, not the old cap.
	addr -= uint64(recSize) + cr.tau/4
	cr.adapt(addr, recSize)
	if cr.window == 0 || cr.window > cr.minWin*4 {
		t.Fatalf("window after collapse+reopen = %d, want small and non-zero", cr.window)
	}
}

func TestChainReaderObservedLatencyClamp(t *testing.T) {
	cr := testChainReader()

	// Before enough samples the profile's τ rules, whatever the readings say.
	cr.observe(time.Microsecond, 4096)
	if got := cr.effTau(); got != cr.tau {
		t.Fatalf("effTau clamped after 1 sample: %d != %d", got, cr.tau)
	}

	// A device answering far below the profile's random-latency floor (a
	// simulator or RAM-backed store) must shrink both τ and the window cap.
	for i := 0; i < 8; i++ {
		cr.observe(time.Microsecond, 4096)
	}
	if got := cr.effTau(); got >= cr.tau {
		t.Fatalf("effTau %d not clamped below profile τ %d", got, cr.tau)
	}
	if got := cr.effMaxWin(); got >= cr.maxWin {
		t.Fatalf("effMaxWin %d not clamped below profile cap %d", got, cr.maxWin)
	}
	if got := cr.effMaxWin(); got < cr.minWin {
		t.Fatalf("effMaxWin %d below the minimum window %d", got, cr.minWin)
	}

	// A device matching its profile keeps the profile's τ: the EWMA recovers
	// once observed fixed costs sit at (or above) the random-latency floor.
	slow := testChainReader()
	for i := 0; i < 8; i++ {
		slow.observe(slow.profile.RandLatency+slow.profile.SyscallCost, 0)
	}
	if got := slow.effTau(); got != slow.tau {
		t.Fatalf("effTau clamped on an honest device: %d != %d", got, slow.tau)
	}
	if got := slow.effMaxWin(); got != slow.maxWin {
		t.Fatalf("effMaxWin clamped on an honest device: %d != %d", got, slow.maxWin)
	}
}

// buildDeviceStore ingests enough records that most of the log lives on the
// device, returning the store, PSF id, and the number of "spark" records.
func buildDeviceStore(t testing.TB, opts Options, n int) (*Store, psf.ID, int) {
	t.Helper()
	if opts.Device == nil {
		opts.Device = storage.NewMem()
	}
	if opts.PageBits == 0 {
		opts.PageBits = 13 // 8KB pages
	}
	if opts.MemPages == 0 {
		opts.MemPages = 2
	}
	s := openTestStore(t, opts)
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	var batch [][]byte
	for i := 0; i < n; i++ {
		repo := "spark"
		if i%3 != 0 {
			repo = fmt.Sprintf("other%d", i%7)
		} else {
			want++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
		if len(batch) == 64 {
			ingestAll(t, s, batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		ingestAll(t, s, batch)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.HeadAddress() <= s.BeginAddress() {
		t.Fatalf("log never spilled to device (head %d)", s.HeadAddress())
	}
	return s, id, want
}

func countScan(t testing.TB, s *Store, id psf.ID, opts ScanOptions) (int, ScanStats) {
	t.Helper()
	got := 0
	st, err := s.Scan(PropertyString(id, "spark"), opts, func(Record) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func TestScanSpeculationHitAccounting(t *testing.T) {
	s, id, want := buildDeviceStore(t, Options{}, 1200)

	// Cold adaptive index scan: device hops, correctness, and the IO ledger.
	got, st := countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("cold scan matched %d, want %d", got, want)
	}
	if st.IOs == 0 || st.ReadBytes == 0 {
		t.Fatalf("on-device scan reported no I/O: %+v", st)
	}

	// Warm scan: the page cache holds the chain's pages now, so hops resolve
	// without device reads and the hits surface in the stats.
	got, st = countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("warm scan matched %d, want %d", got, want)
	}
	if st.PrefetchHits == 0 {
		t.Fatalf("warm scan recorded no prefetch/cache hits: %+v", st)
	}
	if st.PageCacheHits == 0 {
		t.Fatalf("warm scan recorded no page-cache hits: %+v", st)
	}

	// The no-prefetch baseline must not touch the cache accounting.
	got, st = countScan(t, s, id, ScanOptions{Mode: ScanIndexNoPrefetch})
	if got != want {
		t.Fatalf("no-prefetch scan matched %d, want %d", got, want)
	}
	if st.PageCacheHits != 0 {
		t.Fatalf("no-prefetch scan used the page cache: %+v", st)
	}
}

func TestScanFaultDeviceInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps on every device read")
	}
	// A device that genuinely stalls each read: the observed fixed cost sits
	// near the profile floor, so the clamp must stay inert and adaptive
	// prefetching must still return exactly the right records.
	dev := storage.NewFaultDevice(nil, storage.FaultConfig{ReadDelay: 200 * time.Microsecond})
	s, id, want := buildDeviceStore(t, Options{Device: dev, PageCachePages: -1}, 600)

	got, st := countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	if got != want {
		t.Fatalf("scan over slow device matched %d, want %d", got, want)
	}
	if st.IOs == 0 {
		t.Fatalf("scan over slow device reported no I/O: %+v", st)
	}
	if dev.Stats().Reads == 0 {
		t.Fatal("fault device observed no reads")
	}
}

func TestPageCacheConcurrentScanTruncate(t *testing.T) {
	s, id, _ := buildDeviceStore(t, Options{}, 1500)
	tail := s.TailAddress()
	begin := s.BeginAddress()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(Record) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{Mode: ScanForceFull, Parallelism: 2}, func(Record) bool { return true }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Ratchet the truncation point forward while scans run: every step drops
	// cached pages below the floor.
	span := tail - begin
	for i := 1; i <= 8; i++ {
		if err := s.TruncateUntil(begin + span*uint64(i)/16); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Post-truncation scans only surface records above the floor.
	floor := s.TruncatedUntil()
	if _, err := s.Scan(PropertyString(id, "spark"), ScanOptions{}, func(r Record) bool {
		if r.Address < floor {
			t.Errorf("record %d below truncation floor %d", r.Address, floor)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// buildMidStreamStore ingests the buildDeviceStore workload with the PSF
// registered halfway through, so the index covers only the log's second
// half and a forced full scan must parse and evaluate every record.
func buildMidStreamStore(t testing.TB, n int) (*Store, psf.ID, int) {
	t.Helper()
	s := openTestStore(t, Options{Device: storage.NewMem(), PageBits: 13, MemPages: 2})
	var batch [][]byte
	want := 0
	for i := 0; i < n; i++ {
		repo := "spark"
		if i%3 != 0 {
			repo = fmt.Sprintf("other%d", i%7)
		} else {
			want++
		}
		batch = append(batch, genEvent(i, "PushEvent", repo))
	}
	ingestAll(t, s, batch[:n/2])
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, batch[n/2:])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, id, want
}

// scanAddrs runs a scan and returns the delivered addresses in delivery
// order. stopAfter > 0 makes the callback stop after that many records.
func scanAddrs(t testing.TB, s *Store, id psf.ID, opts ScanOptions, stopAfter int) ([]uint64, ScanStats) {
	t.Helper()
	var addrs []uint64
	st, err := s.Scan(PropertyString(id, "spark"), opts, func(r Record) bool {
		addrs = append(addrs, r.Address)
		return stopAfter == 0 || len(addrs) < stopAfter
	})
	if err != nil {
		t.Fatal(err)
	}
	return addrs, st
}

func sameAddrSet(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestFastFullScanEquivalence runs the one full-scan loop with both
// matchers and 1, 2 and 4 workers. On the index-complete store ScanForceFull
// takes the pointer-match path and must agree with the index scan; on the
// mid-stream store it parses every record and must agree with the auto
// plan (full-scan prefix plus index suffix).
func TestFastFullScanEquivalence(t *testing.T) {
	stores := []struct {
		name          string
		build         func(testing.TB, int) (*Store, psf.ID, int)
		indexComplete bool
		oracle        ScanMode
	}{
		{"index-complete", func(t testing.TB, n int) (*Store, psf.ID, int) {
			return buildDeviceStore(t, Options{}, n)
		}, true, ScanForceIndex},
		{"mid-stream", buildMidStreamStore, false, ScanAuto},
	}
	for _, sc := range stores {
		s, id, want := sc.build(t, 900)
		if got := s.rangeIndexComplete(id, s.BeginAddress(), s.TailAddress()); got != sc.indexComplete {
			t.Fatalf("%s: rangeIndexComplete = %v, want %v", sc.name, got, sc.indexComplete)
		}
		oracle, _ := scanAddrs(t, s, id, ScanOptions{Mode: sc.oracle}, 0)
		if len(oracle) != want {
			t.Fatalf("%s: %v scan matched %d, want %d", sc.name, sc.oracle, len(oracle), want)
		}
		var serialVisited int64
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				opts := ScanOptions{Mode: ScanForceFull, Parallelism: workers}
				got, st := scanAddrs(t, s, id, opts, 0)
				if !sameAddrSet(got, oracle) {
					t.Fatalf("full scan surfaced %d records, %v scan %d, or the address sets differ",
						len(got), sc.oracle, len(oracle))
				}
				if st.Visited == 0 || st.Stopped {
					t.Fatalf("unexpected stats: %+v", st)
				}
				if workers == 1 {
					serialVisited = st.Visited
					for i := 1; i < len(got); i++ {
						if got[i] <= got[i-1] {
							t.Fatalf("serial delivery not ascending at %d: %d after %d", i, got[i], got[i-1])
						}
					}
				} else if st.Visited != serialVisited {
					t.Fatalf("Visited = %d, serial scan visited %d", st.Visited, serialVisited)
				}

				const stopAfter = 5
				got, st = scanAddrs(t, s, id, opts, stopAfter)
				if len(got) != stopAfter || !st.Stopped || st.Matched != stopAfter {
					t.Fatalf("early stop delivered %d records (Stopped=%v, Matched=%d), want %d",
						len(got), st.Stopped, st.Matched, stopAfter)
				}
			})
		}
	}
}

// TestParallelFullScanQuarantine: a corrupt device record is quarantined
// exactly once whether one worker or four sweep the pages.
func TestParallelFullScanQuarantine(t *testing.T) {
	mem := storage.NewMem()
	s := openTestStore(t, Options{Device: mem, PageBits: 12, MemPages: 4, VerifyOnRead: true})
	id, _, err := s.RegisterPSF(psf.Projection("repo.name"))
	if err != nil {
		t.Fatal(err)
	}
	n := fillToDevice(t, s)
	addrs, sizes := deviceRecordAddrs(t, mem, s.log.HeadAddress())
	victim := len(addrs) / 2
	flipPayloadByte(t, mem, addrs[victim], sizes[victim])

	for _, workers := range []int{1, 4} {
		got, st := scanAddrs(t, s, id, ScanOptions{Mode: ScanForceFull, Parallelism: workers}, 0)
		if len(got) != n-1 {
			t.Fatalf("workers=%d: surfaced %d records, want %d", workers, len(got), n-1)
		}
		if st.Quarantined != 1 {
			t.Fatalf("workers=%d: Quarantined = %d, want 1", workers, st.Quarantined)
		}
		for _, a := range got {
			if a == addrs[victim] {
				t.Fatalf("workers=%d: corrupt record %d surfaced", workers, a)
			}
		}
	}
}

// TestParallelIndexScanUnshardedChain: Parallelism only fans out across
// shard chains; a non-sharded chain walk with Parallelism 4 over a device
// store with the page cache on must deliver exactly the serial walk's
// records in the same order.
func TestParallelIndexScanUnshardedChain(t *testing.T) {
	s, id, want := buildDeviceStore(t, Options{}, 1200)
	serial, _ := scanAddrs(t, s, id, ScanOptions{Mode: ScanForceIndex}, 0)
	par, st := scanAddrs(t, s, id, ScanOptions{Mode: ScanForceIndex, Parallelism: 4}, 0)
	if len(serial) != want || len(par) != want {
		t.Fatalf("serial matched %d, parallel %d, want %d", len(serial), len(par), want)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("delivery %d: parallel %d, serial %d", i, par[i], serial[i])
		}
	}
	if st.PageCacheHits == 0 {
		t.Fatalf("chain walk did not read through the page cache: %+v", st)
	}
}

func TestCacheStatsSnapshot(t *testing.T) {
	s, id, _ := buildDeviceStore(t, Options{}, 900)
	countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})
	countScan(t, s, id, ScanOptions{Mode: ScanForceIndex})

	cs := s.CacheStats()
	if !cs.PageCacheEnabled {
		t.Fatalf("page cache disabled by default: %+v", cs)
	}
	if cs.PageCache.Fills == 0 {
		t.Fatalf("page cache never filled: %+v", cs.PageCache)
	}

	off := openTestStore(t, Options{PageCachePages: -1})
	if cso := off.CacheStats(); cso.PageCacheEnabled {
		t.Fatalf("disabled page cache reports enabled: %+v", cso)
	}
}
