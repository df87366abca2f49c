package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fishstore/internal/datagen"
	"fishstore/internal/expr"
	"fishstore/internal/parser/fulljson"
	"fishstore/internal/psf"
)

// batchRecords is the records per Ingest call.
const batchRecords = 64

// The PSFs the read workloads query (Table 1's Yelp predicates).
const (
	goodSrc   = `stars > 3 && useful > 5` // ~2% of records
	usefulSrc = `useful > 10`             // ~1%
)

// yelpTable1 is the Table-1 Yelp PSF set: four projections, two predicates.
func yelpTable1() []psf.Definition {
	return []psf.Definition{
		psf.Projection("review_id"),
		psf.Projection("user_id"),
		psf.Projection("business_id"),
		psf.Projection("stars"),
		psf.MustPredicate("good", goodSrc),
		psf.MustPredicate("useful", usefulSrc),
	}
}

// subSeed derives the seed of one input stream from the run's seed, so
// the streams of one run are distinct and each is fixed by the seed.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// genBatches draws distinct Yelp records totalling about bytes from the
// given stream and splits them into Ingest batches. The records share one
// buffer, so the inputs cost the collector one object, not one per record.
func genBatches(seed int64, bytes int) [][][]byte {
	gen := datagen.NewYelp(seed, 700)
	buf := make([]byte, 0, bytes+4096)
	var recs [][]byte
	for len(buf) < bytes {
		r := gen.Next()
		if len(buf)+len(r) > cap(buf) {
			break
		}
		buf = append(buf, r...)
		recs = append(recs, buf[len(buf)-len(r):len(buf):len(buf)])
	}
	var out [][][]byte
	for len(recs) > 0 {
		n := min(batchRecords, len(recs))
		out = append(out, recs[:n:n])
		recs = recs[n:]
	}
	return out
}

func sizeOf(batch [][]byte) int64 {
	var n int64
	for _, r := range batch {
		n += int64(len(r))
	}
	return n
}

// facts is the oracle's view of one record. It holds no pointers, so
// the oracle costs the collector nothing to mark.
type facts struct {
	biz          int32 // business_id "b%06d", as its number
	good, useful bool
}

// bizString is the business_id a facts.biz stands for.
func bizString(biz int32) string { return fmt.Sprintf("b%06d", biz) }

// parseBiz is bizString's inverse; it rejects any other form.
func parseBiz(s string) (int32, error) {
	n, err := strconv.ParseInt(strings.TrimPrefix(s, "b"), 10, 32)
	if err != nil || bizString(int32(n)) != s {
		return 0, fmt.Errorf("oracle: unexpected business_id %q", s)
	}
	return int32(n), nil
}

// oracle derives each record's facts with the full DOM JSON parser and
// the expression evaluator, never with pjson, the parser under test.
func oracle(batches [][][]byte) ([][]facts, error) {
	out := make([][]facts, len(batches))
	good, useful := expr.MustParse(goodSrc), expr.MustParse(usefulSrc)
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := fulljson.New().NewSession([]string{"business_id", "stars", "useful"})
			if err != nil {
				errs[w] = err
				return
			}
			for b := w; b < len(batches); b += workers {
				fs := make([]facts, len(batches[b]))
				for i, rec := range batches[b] {
					p, err := sess.Parse(rec)
					if err != nil {
						errs[w] = fmt.Errorf("oracle: parse record: %w", err)
						return
					}
					biz, err := parseBiz(p.Lookup("business_id").Str)
					if err != nil {
						errs[w] = err
						return
					}
					fs[i] = facts{
						biz:    biz,
						good:   good.EvalBool(p.Lookup),
						useful: useful.EvalBool(p.Lookup),
					}
				}
				out[b] = fs
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tally counts good and useful records in batches [from, to) of fs.
func tally(fs [][]facts, from, to int) (good, useful int64) {
	for _, b := range fs[from:to] {
		for _, f := range b {
			if f.good {
				good++
			}
			if f.useful {
				useful++
			}
		}
	}
	return good, useful
}

// bizCounts counts records per business_id in batches [from, to) of fs.
func bizCounts(fs [][]facts, from, to int) map[int32]int64 {
	m := map[int32]int64{}
	for _, b := range fs[from:to] {
		for _, f := range b {
			m[f.biz]++
		}
	}
	return m
}

// zipfIDs draws business ids with Zipf skew (s = 1.1) over a seeded
// ranking of the ids present.
type zipfIDs struct {
	ids []int32
	z   *rand.Zipf
}

func newZipfIDs(seed int64, counts map[int32]int64) *zipfIDs {
	ids := make([]int32, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return &zipfIDs{ids: ids, z: rand.NewZipf(rng, 1.1, 1, uint64(len(ids)-1))}
}

func (z *zipfIDs) next() int32 { return z.ids[z.z.Uint64()] }
