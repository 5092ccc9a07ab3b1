package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// perLayer lists every per-layer metric, by module, with its unit. A
// traced run reports all of them for every workload: a layer a workload
// does not reach reports what the leaf costs when called directly (so
// the number exists to compare) or a zero count.
var perLayer = []struct{ name, unit string }{
	// api
	{"api.verify_session_us", "us"}, {"api.verify_ed25519_us", "us"}, {"api.sign_session_us", "us"},
	{"api.decode_spec_us", "us"}, {"api.encode_workload_us", "us"}, {"api.encode_error_us", "us"},
	{"api.decode_error_us", "us"},
	// api/server
	{"server.handler_deploy_us", "us"}, {"server.handler_batch64_ms", "ms"}, {"server.handler_nodes_us", "us"},
	{"server.self_us", "us"}, {"server.sse_frames", "count"}, {"server.sse_bytes_per_event", "bytes"},
	// api/client
	{"client.deploy_p50_us", "us"}, {"client.deploy_p90_us", "us"}, {"client.deploy_p99_us", "us"},
	{"client.deploy_p999_us", "us"}, {"client.deploy_max_us", "us"}, {"client.samples", "count"},
	{"client.probe_p50_us", "us"}, {"client.reject_p50_us", "us"}, {"client.batch_p50_ms", "ms"},
	{"client.watch_lag_p90_ms", "ms"}, {"client.nodes_read_p50_us", "us"}, {"client.drain_per_workload_us", "us"},
	{"client.self_us", "us"}, {"client.session_handshakes", "count"}, {"client.conns_opened", "count"},
	// wire: loopback TCP + net/http
	{"wire.transport_us", "us"}, {"wire.bytes_per_deploy_req", "bytes"}, {"wire.bytes_per_deploy_resp", "bytes"},
	// internal/rbac, internal/container
	{"rbac.check_us", "us"},
	{"container.pull_verified_hot_us", "us"}, {"container.pull_verified_cold_us", "us"}, {"container.digest_us", "us"},
	// scanners and the verdict cache
	{"malware.scan_us", "us"}, {"scap.docker_bench_us", "us"}, {"sca.scan_us", "us"}, {"sast.scan_us", "us"},
	{"admission.cache_entries", "count"}, {"admission.scans_per_digest", "count"},
	// internal/orchestrator
	{"orchestrator.deploy_us", "us"}, {"orchestrator.self_us", "us"}, {"orchestrator.drain_per_workload_us", "us"},
	{"orchestrator.failnode_per_workload_us", "us"}, {"orchestrator.utilization_us", "us"},
	{"orchestrator.admitted", "count"}, {"orchestrator.rejected", "count"},
	// internal/orchestrator/scheduler
	{"scheduler.select_8_us", "us"}, {"scheduler.select_256_us", "us"}, {"scheduler.candidates_per_select", "count"},
	// internal/federation
	{"federation.ring_owner_ns", "ns"}, {"federation.deploy_self_us", "us"}, {"federation.overflow_share", "share"},
	{"federation.member_spread", "ratio"}, {"federation.recovered_share", "share"},
	// internal/persist
	{"persist.append_us", "us"}, {"persist.flush_us", "us"}, {"persist.snapshot_ms", "ms"}, {"persist.open_load_ms", "ms"},
	{"persist.wal_records_per_deploy", "count"}, {"persist.wal_bytes_per_deploy", "bytes"},
	{"persist.snapshot_bytes", "bytes"}, {"persist.disk_bytes_per_workload", "bytes"},
	// internal/events
	{"events.publish_us", "us"}, {"events.flush_us", "us"}, {"events.published_per_deploy", "count"},
	{"events.delivered", "count"}, {"events.dropped", "count"},
	// internal/core
	{"core.deploy_us", "us"}, {"core.self_us", "us"}, {"core.deploy_async_us", "us"}, {"core.deploy_batch64_ms", "ms"},
	{"core.watch_deliver_us", "us"}, {"core.new_recover_ms", "ms"}, {"core.incidents", "count"},
	// internal/sandbox
	{"sandbox.set_policy_us", "us"},
	// the daemon process
	{"daemon.cpu_sync_us_per_deploy", "us"}, {"daemon.cpu_bulk_us_per_deploy", "us"},
	{"daemon.cpu_user_us_per_deploy", "us"}, {"daemon.cpu_sys_us_per_deploy", "us"}, {"daemon.boot_ms", "ms"},
	{"daemon.threads", "count"},
	// the ladder itself
	{"ladder.unaccounted_us", "us"}, {"trace.overhead_pct", "%"},
}

// leafGroups says which layer's blocking path each per-op leaf span
// lies on. persist.flush and events.flush are timed too but lie off
// the request path.
var leafGroups = map[string]string{
	"api.sign_session":             "client",
	"api.verify_session":           "server",
	"api.decode_spec":              "server",
	"api.encode_workload":          "server",
	"rbac.check":                   "orchestrator",
	"container.pull_verified_hot":  "orchestrator",
	"container.pull_verified_cold": "orchestrator",
	"container.digest":             "orchestrator",
	"malware.scan":                 "orchestrator",
	"scap.docker_bench":            "orchestrator",
	"sca.scan":                     "orchestrator",
	"sast.scan":                    "orchestrator",
	"scheduler.select":             "orchestrator",
	"persist.append":               "orchestrator",
	"events.publish":               "core",
	"sandbox.set_policy":           "core",
}

// descend runs one pass of the ladder: an untraced and a traced wire
// epoch, then rungs 1-4 in process, then the subtraction.
func descend(ctx context.Context, w *workload, o options, epoch int) (*pass, error) {
	p := &pass{w: w, pl: w.generate(o.seed, epoch), tr: newTracer(), outDir: o.outDir, vals: make(map[string]float64)}
	untraced := &wireRun{w: w, seed: o.seed, outDir: o.outDir}
	plain, err := untraced.epoch(ctx, epoch)
	if err != nil {
		return nil, fmt.Errorf("untraced wire epoch: %w", err)
	}
	traced := &wireRun{w: w, seed: o.seed, outDir: o.outDir, tr: p.tr}
	st, err := traced.epoch(ctx, epoch)
	if err != nil {
		return nil, fmt.Errorf("rung 0: %w", err)
	}
	for _, e := range []*epochStats{plain, st} {
		p.attempted += e.attempted
		p.failed += e.failed
		p.failures = append(p.failures, e.failures...)
	}
	if err := p.replay(ctx); err != nil {
		return nil, err
	}
	p.reduce(plain, st)
	return p, nil
}

// replay takes every op through rungs 1-4 back to back — op i on the
// handler, then on the platform, then on the cluster, then leaf by leaf
// — each rung on its own identically built platform. Interleaving per
// op, rather than replaying rung after rung, puts the four timings of
// one op microseconds apart, so drift in the machine's speed cancels in
// the subtraction.
func (p *pass) replay(ctx context.Context) error {
	runtime.GC() // the wire epochs' garbage is not the rungs' to collect
	mem, err := p.newMemRung()
	if err != nil {
		return fmt.Errorf("rung 1: %w", err)
	}
	defer mem.close()
	cor, err := p.newCoreRung()
	if err != nil {
		return fmt.Errorf("rung 2: %w", err)
	}
	defer cor.close()
	clu, err := p.newClusterRung()
	if err != nil {
		return fmt.Errorf("rung 3: %w", err)
	}
	defer clu.close()
	leaf, err := p.newLeafRung(ctx)
	if err != nil {
		return fmt.Errorf("rung 4: %w", err)
	}
	defer leaf.close()
	each := func(op *deployOp, timed bool) {
		mem.deploy(ctx, op, timed)
		cor.deploy(ctx, op, timed)
		clu.deploy(ctx, op, timed)
		leaf.deploy(ctx, op, timed)
	}
	for i := range p.pl.Warmup {
		each(&p.pl.Warmup[i], false)
	}
	clu.lsnBefore = clu.wal.LastLSN()
	// The whole sync stream, as on rung 0, so every op id exists on
	// every rung.
	for i := range p.pl.Sync {
		each(&p.pl.Sync[i], true)
		leaf.settle(&p.pl.Sync[i])
	}
	for i, rest := range []func(context.Context) error{mem.rest, cor.rest, clu.rest, leaf.rest} {
		if err := rest(ctx); err != nil {
			return fmt.Errorf("rung %d: %w", i+1, err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// reduce turns the pass's spans and counters into the per-layer
// values. A layer's self time is its rung's median minus the medians
// of the rungs and leaves it contains.
func (p *pass) reduce(plain, st *epochStats) {
	v := p.vals
	fed := len(p.w.Members) > 0

	// rung 0: what only the outside can see
	p.plainP50, p.wireP50 = median(plain.deployUs), median(st.deployUs)
	v["client.deploy_p50_us"] = p.wireP50
	v["client.deploy_p90_us"] = quantile(st.deployUs, 0.9)
	v["client.probe_p50_us"] = median(st.probeUs)
	v["client.reject_p50_us"] = median(st.rejectUs)
	v["client.batch_p50_ms"] = median(st.batchMs)
	v["client.drain_per_workload_us"] = median(st.drainUs)
	v["client.watch_lag_p90_ms"] = quantile(st.lagMs, 0.9)
	v["client.nodes_read_p50_us"] = median(st.nodesUs)
	v["client.deploy_p99_us"] = quantile(st.deployUs, 0.99)
	v["client.deploy_p999_us"] = quantile(st.deployUs, 0.999)
	v["client.deploy_max_us"] = quantile(st.deployUs, 1)
	v["client.samples"] = float64(len(st.deployUs))
	v["client.session_handshakes"] = float64(st.net.handshakes.Load())
	v["client.conns_opened"] = float64(st.net.conns.Load())
	v["wire.bytes_per_deploy_req"] = st.deployReqB
	v["wire.bytes_per_deploy_resp"] = st.deployRespB
	v["server.sse_frames"] = float64(st.sseFrames)
	if st.sseFrames > 0 {
		v["server.sse_bytes_per_event"] = float64(st.net.streamed.Load()) / float64(st.sseFrames)
	}
	v["daemon.cpu_sync_us_per_deploy"] = st.cpuSyncUs / float64(len(p.pl.Sync))
	v["daemon.cpu_bulk_us_per_deploy"] = st.cpuBulkUs / float64(st.bulkPlaced)
	v["daemon.cpu_user_us_per_deploy"] = float64(st.userTicks) * 1e6 / clockTick / float64(st.handled)
	v["daemon.cpu_sys_us_per_deploy"] = float64(st.sysTicks) * 1e6 / clockTick / float64(st.handled)
	v["daemon.boot_ms"] = st.bootMs
	v["daemon.threads"] = float64(st.threads)
	var published, delivered, dropped uint64
	for _, ts := range st.ledger {
		published += ts.Published
		delivered += ts.Delivered
		dropped += ts.Dropped
	}
	v["events.published_per_deploy"] = float64(published) / float64(st.allPlaced)
	v["events.delivered"] = float64(delivered)
	v["events.dropped"] = float64(dropped)
	if st.walRecords > 0 {
		v["persist.wal_bytes_per_deploy"] = float64(st.walBytes) / float64(st.walRecords) * v["persist.wal_records_per_deploy"]
	}
	v["persist.disk_bytes_per_workload"] = float64(st.walBytes+st.snapBytes) / float64(st.allPlaced)
	v["federation.recovered_share"] = st.recovered

	// rungs 1-3
	p.memP50 = p.med(rungMem, "client.deploy", p.placed)
	handler := p.med(rungMem, "server.deploy", p.placed)
	v["server.handler_deploy_us"] = handler
	v["server.handler_batch64_ms"] = p.med(rungMem, "server.batch", nil) / 1e3
	v["server.handler_nodes_us"] = p.med(rungMem, "server.nodes", nil)
	v["client.self_us"] = p.memP50 - handler
	coreDeploy := p.med(rungCore, "core.deploy", p.placed)
	v["core.deploy_us"] = coreDeploy
	v["core.deploy_async_us"] = p.med(rungCore, "core.deploy_async", nil)
	v["core.deploy_batch64_ms"] = p.med(rungCore, "core.deploy_batch", nil) / 1e3
	v["core.watch_deliver_us"] = p.med(rungCore, "core.watch_deliver", nil)
	v["core.new_recover_ms"] = p.med(rungCore, "core.new_recover", nil) / 1e3
	orch := p.med(rungCluster, "orchestrator.deploy", p.placed)
	v["orchestrator.deploy_us"] = orch
	v["orchestrator.utilization_us"] = p.med(rungCluster, "orchestrator.utilization", nil)
	belowCore := orch
	if fed {
		belowCore = p.med(rungCluster, "federation.deploy", p.placed)
		v["federation.deploy_self_us"] = belowCore - orch
	}

	// rung 4: every leaf by name, and per placed op the sum of the leaves
	// on each layer's blocking path
	for _, name := range []string{
		"api.verify_session", "api.verify_ed25519", "api.sign_session", "api.decode_spec", "api.encode_workload",
		"api.encode_error", "api.decode_error", "rbac.check", "container.pull_verified_hot",
		"container.pull_verified_cold", "container.digest", "malware.scan", "scap.docker_bench", "sca.scan",
		"sast.scan", "scheduler.select_8", "scheduler.select_256", "persist.append", "persist.flush",
		"events.publish", "events.flush", "sandbox.set_policy",
	} {
		v[name+"_us"] = p.med(rungLeaf, name, nil)
	}
	v["persist.snapshot_ms"] = p.med(rungLeaf, "persist.snapshot", nil) / 1e3
	v["persist.open_load_ms"] = p.med(rungLeaf, "persist.open_load", nil) / 1e3
	sums := make(map[int]map[string]float64) // root span -> layer -> µs
	for i := range p.tr.spans {
		s := &p.tr.spans[i]
		if s.Rung == rungLeaf && s.Name == "leaf.deploy" && p.placed(s) {
			sums[s.ID] = make(map[string]float64)
		}
	}
	for i := range p.tr.spans {
		s := &p.tr.spans[i]
		if group, ok := leafGroups[s.Name]; ok && s.Rung == rungLeaf && sums[s.Parent] != nil {
			sums[s.Parent][group] += us(s.End - s.Start)
		}
	}
	onPath := func(group string) float64 {
		var xs []float64
		for _, m := range sums {
			xs = append(xs, m[group])
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	v["server.self_us"] = handler - coreDeploy - onPath("server")
	v["core.self_us"] = coreDeploy - belowCore - onPath("core")
	v["orchestrator.self_us"] = orch - onPath("orchestrator")
	// Wire p50 minus transport minus every named leaf: what is left of
	// the in-memory round trip when all the leaves are taken out.
	v["ladder.unaccounted_us"] = p.memP50 -
		(onPath("client") + onPath("server") + onPath("core") + onPath("orchestrator"))
}

// runTraced descends the ladder until the duration is used up and
// reports the median pass. The first pass's spans are written to
// out/trace-<workload>.jsonl when the run ends.
func runTraced(ctx context.Context, w *workload, o options) (*result, error) {
	var passes []*pass
	err := repeat(o.seconds, func(e int) error {
		p, err := descend(ctx, w, o, e)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", w.Name, e, err)
		}
		if e > 0 {
			p.tr = nil // only the first pass's spans are written out
		}
		passes = append(passes, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.mismatches = append(res.mismatches, p.failures...)
	}
	// Every value is its median over the run's passes.
	over := func(of func(*pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = of(p)
		}
		return median(xs)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{over(func(p *pass) float64 { return p.vals[m.name] }), m.unit}
	}
	wire := over(func(p *pass) float64 { return p.wireP50 })
	res.Metrics["wire.transport_us"] = metric{wire - over(func(p *pass) float64 { return p.memP50 }), "us"}
	res.Metrics["trace.overhead_pct"] = metric{(wire/over(func(p *pass) float64 { return p.plainP50 }) - 1) * 100, "%"}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := passes[0].tr.write(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	finish(res)
	return res, nil
}
