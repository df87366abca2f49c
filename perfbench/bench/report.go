package bench

import (
	"bufio"
	"fmt"
	"os"

	"fishstore/internal/introspect"
)

// layerReport computes the per-layer metrics of a traced run. ing is the
// traced phase that ingested (it gives the ingest layers), qry the one
// that queried; ingRec and qryRec hold their ops by window half, half 0
// untraced and half 1 traced, for the tracing overhead.
func layerReport(l *layers, ing, qry phaseDelta, idx introspect.IndexSnapshot, ingRec, qryRec *[2]recorder) map[string]Metric {
	m := map[string]Metric{}
	put := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }
	ops := l.sums()
	in := ops[opIngest]
	parse := l.agg.get("pjson.parse")
	sess := l.agg.get("session.ingest")

	put("pjson.parse_us_per_call", "us", ratio(parse.self.Seconds()*1e6, float64(parse.count)))
	put("pjson.calls_per_record", "calls", ratio(float64(in.parseCalls), float64(in.records)))
	put("pjson.share_of_ingest", "ratio", ratio(sess.parseChild.Seconds(), sess.total.Seconds()))
	put("session.self_us_per_record", "us", ratio(sess.self.Seconds()*1e6, float64(in.records)))

	put("hashtable.load_factor", "ratio", idx.LoadFactor)
	put("hashtable.overflow_used_fraction", "ratio", ratio(float64(idx.OverflowUsed), float64(idx.OverflowCap)))

	put("hlog.flushes", "count", float64(ing.writes))
	put("hlog.flush_busy_ms", "ms", float64(ing.writeNanos)/1e6)
	put("hlog.write_bytes_per_input_byte", "ratio", ratio(float64(ing.writeBytes), float64(in.inputBytes)))

	var scans opSums
	for _, k := range queryOps {
		o := ops[k]
		n, name := float64(o.ops), opNames[k]
		put("pjson.calls_per_op."+name, "calls", ratio(float64(o.parseCalls), n))
		put("storage.reads_per_op."+name, "count", ratio(float64(o.reads), n))
		put("storage.read_bytes_per_op."+name, "B", ratio(float64(o.readBytes), n))
		put("storage.read_bytes_per_match."+name, "B", ratio(float64(o.readBytes), float64(o.matches)))
		put("storage.read_busy_us_per_op."+name, "us", ratio(float64(o.readNanos)/1e3, n))
		put("storage.modeled_ms_per_op."+name, "ms", ratio(float64(o.modeledNanos)/1e6, n))
		put("scan.visited_per_match."+name, "ratio", ratio(float64(o.visited), float64(o.matches)))
		put("scan.indexed_fraction."+name, "ratio", ratio(float64(o.indexed), float64(o.planned)))
		put("scan.full_scan_mb_per_op."+name, "MB", ratio(float64(o.fullScanBytes)/(1<<20), n))
		put("runtime.allocs_per_op."+name, "count", ratio(float64(o.allocs), n))
		scans.add(o)
	}
	put("pagecache.hit_ratio", "ratio", ratio(float64(qry.pcHits), float64(qry.pcHits+qry.pcMisses)))
	put("pagecache.fills", "count", float64(qry.pcFills))
	put("pagecache.evictions", "count", float64(qry.pcEvictions))
	// Prefetch serves chain hops: take the ops that only walk chains.
	var walks opSums
	walks.add(ops[opLookup])
	walks.add(ops[opScanIndex])
	put("prefetch.hits_per_hop", "ratio", ratio(float64(walks.prefetchHits), float64(walks.hops)))
	put("prefetch.read_bytes_per_hop", "B", ratio(float64(walks.readBytes), float64(walks.hops)))
	put("summaries.skipped_pages_per_scan", "count", ratio(float64(scans.bloomSkipped), float64(scans.ops)))
	put("hotchain.hit_ratio", "ratio", ratio(float64(qry.hotHits), float64(qry.hotHits+qry.hotMisses)))

	put("runtime.allocs_per_record", "count", ratio(float64(ing.allocs), float64(in.records)))
	put("runtime.gc_cpu_fraction", "ratio", ratio(ing.gcCPU+qry.gcCPU, ing.cpu+qry.cpu))

	late := qryRec[1].late
	if len(late) == 0 {
		late = ingRec[1].late
	}
	put("loadgen.late_ms_p99", "ms", 1e3*quantile(late, 0.99))

	overhead := func(rcs *[2]recorder, k opKind) float64 {
		return ratio(quantile(rcs[1].lat[k], 0.5), quantile(rcs[0].lat[k], 0.5)) - 1
	}
	put("tracing.overhead.ingest_batch_p50", "ratio", overhead(ingRec, opIngest))
	for _, k := range queryOps {
		put("tracing.overhead."+opNames[k]+"_p50", "ratio", overhead(qryRec, k))
	}
	return m
}

// writeTrace exports the retained spans as Chrome trace JSON.
func (r *run) writeTrace(l *layers) error {
	if r.cfg.TraceOut == "" {
		return nil
	}
	f, err := os.Create(r.cfg.TraceOut)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := l.tracer.WriteChrome(w); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
