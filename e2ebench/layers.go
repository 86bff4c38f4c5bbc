package main

// The per-layer metric set is the same on every workload, so that one
// list in BENCHMARK.json describes every traced run. A layer a workload
// bypasses reports 0: no cache on the in-process workloads, no WAL or
// checkpoints outside aids-durable-mixed, no per-entry split on
// aids-served (its searches run untraced so the result cache stays in
// the path).

// servedLayers are the transport, server and result-cache figures of a
// traced aids-served run.
type servedLayers struct {
	transportP50, handlerSelfP50, allocsPerReq, hitRatio, evictions float64
}

func addServerLayers(rep *report, s *servedLayers) {
	if s == nil {
		s = &servedLayers{}
	}
	rep.add("transport.search_p50_us", "us", s.transportP50)
	rep.add("server.handler_self_p50_us", "us", s.handlerSelfP50)
	rep.add("server.allocs_per_req", "count", s.allocsPerReq)
	rep.add("qcache.hit_ratio", "ratio", s.hitRatio)
	rep.add("qcache.evictions", "count", s.evictions)
}

// durableLayers are the shard-mutation, WAL and durability figures of an
// aids-durable-mixed run, with the write, recovery and disk figures that
// only that workload has.
type durableLayers struct {
	addP50, updateP50, deleteP50          float64
	appendP50, fsyncP50, waitP50          float64
	recordsPerFsync, bytesPerWrite        float64
	checkpointP50ms, checkpointMiB        float64
	replayRecords                         float64
	writeP50, writeP95, recoverS, diskMiB float64
}

func addDurableLayers(rep *report, d *durableLayers) {
	if d == nil {
		d = &durableLayers{}
	}
	rep.add("shard.add_p50_us", "us", d.addP50)
	rep.add("shard.update_p50_us", "us", d.updateP50)
	rep.add("shard.delete_p50_us", "us", d.deleteP50)
	rep.add("wal.append_p50_us", "us", d.appendP50)
	rep.add("wal.fsync_p50_us", "us", d.fsyncP50)
	rep.add("wal.wait_p50_us", "us", d.waitP50)
	rep.add("wal.records_per_fsync", "ratio", d.recordsPerFsync)
	rep.add("wal.bytes_per_write", "B", d.bytesPerWrite)
	rep.add("durable.checkpoint_p50_ms", "ms", d.checkpointP50ms)
	rep.add("durable.checkpoint_mib", "MiB", d.checkpointMiB)
	rep.add("durable.replay_records", "count", d.replayRecords)
	rep.add("durable.write_p50_us", "us", d.writeP50)
	rep.add("durable.write_p95_us", "us", d.writeP95)
	rep.add("durable.recover_s", "s", d.recoverS)
	rep.add("durable.disk_mib", "MiB", d.diskMiB)
}

// addCommonLayers adds the tail latencies and the Go runtime's work over
// the untraced timed phase, the set-up split and the tracing overhead.
//
// The p95s are reported here, unbounded, rather than as end-to-end
// metrics: on the shared 2-vCPU machine the benchmark was tuned on, tails
// track the other tenants. In one set of ten seeds the p50s spread by at most 0.07
// of their median while the p95s spread by up to 0.68 (aids-durable-mixed
// top-k), in phases lasting several consecutive runs.
func addCommonLayers(rep *report, parts setupTimes, rt runtimeDelta, smp *samples, overheadUS float64) {
	attempted, _ := smp.total()
	rep.add("search_p95_us", "us", quantile(smp.us("search"), 0.95))
	rep.add("topk_p95_us", "us", quantile(smp.us("topk"), 0.95))
	rep.add("setup.load_s", "s", parts.load)
	rep.add("setup.priors_s", "s", parts.priors)
	rep.add("setup.warm_s", "s", parts.warm)
	rep.add("runtime.alloc_bytes_per_op", "B", ratio(float64(rt.alloc), float64(attempted)))
	rep.add("runtime.gc_cycles", "count", float64(rt.gc))
	rep.add("trace.search_overhead_us", "us", overheadUS)
}
