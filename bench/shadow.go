package main

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/obs"
	"steelnet/internal/steelnetd"
	"steelnet/internal/tshist"
)

// traceStream derives gateway_stream's per-layer metrics from three
// sources: the counters of the tapped live rep (ref), a solo live run
// of one simulation through the gateway, and a bench-side shadow of
// that run's slice loop with a span around every public call.
func traceStream(res *result, z streamSize, p params, ref streamRep) error {
	res.set("steelnetd.hub.published", float64(ref.hub.Published()), 1)
	res.set("steelnetd.hub.dropped", float64(ref.hub.Dropped()), 1)
	res.set("steelnetd.hub.evicted", float64(ref.hub.Evicted()), 1)
	res.set("steelnetd.hub.queue_high_water", float64(ref.hub.QueueHighWater()), 1)
	res.set("steelnetd.hub.fanout_p99_ns", ref.hub.FanoutQuantile(0.99), int(ref.published))
	res.set("steelnetd.firings", float64(ref.firings), 1)
	res.set("steelnetd.journal.records", float64(ref.journal), 1)
	res.set("steelnetd.sse_bytes", float64(ref.sseBytes), 1)
	res.set("steelnetd.sse_drain_ms", ref.drain.Seconds()*1e3, 1)
	res.set("steelnetd.run_start_ms", median(ref.runStart), len(ref.runStart))
	res.set("steelnetd.sse_first_byte_p99_us", supportedPercentile(ref.firstByte, 0.99), len(ref.firstByte))
	res.set("steelnetd.sse_lag_p50_us", median(ref.lag), len(ref.lag))
	res.set("steelnetd.sse_lag_p99_us", supportedPercentile(ref.lag, 0.99), len(ref.lag))

	// The same single run twice: live through the gateway and the
	// sockets, then shadowed in this goroutine.
	solo := z
	solo.connectCycles = 0
	live, err := runStreamRep(solo, p, 1, false)
	if err != nil {
		return err
	}
	for _, problem := range live.problems {
		res.op("gateway_stream solo run: " + problem)
	}
	rec := newRecorder(res.workload)
	slices, appends, err := shadowRun(rec, z, p)
	if err != nil {
		return err
	}
	if uint64(slices) != live.slices {
		res.op(fmt.Sprintf("gateway_stream shadow: stepped %d slices, the gateway %d", slices, live.slices))
	}

	per := func(name string, unit time.Duration) (float64, int) {
		n := rec.count(name)
		if n == 0 {
			return 0, 0
		}
		return float64(rec.total(name)) / float64(unit) / float64(n), n
	}
	for _, m := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"core.headless_build_ms", "core.NewHeadless", time.Millisecond},
		{"core.headless_step_us", "core.Headless.Step", time.Microsecond},
		{"core.headless_sample_us", "core.Headless.Sample", time.Microsecond},
		{"telemetry.values_us", "telemetry.Registry.Values", time.Microsecond},
		{"telemetry.prom_render_us", "telemetry.Registry.WritePrometheus", time.Microsecond},
		{"obs.broker_publish_us", "obs.Broker.Publish", time.Microsecond},
		{"steelnetd.rule_eval_us", "steelnetd.Engine.Eval", time.Microsecond},
		{"steelnetd.hub_publish_us", "steelnetd.Hub.Publish", time.Microsecond},
		{"steelnetd.journal_record_ns", "steelnetd.Journal.RecordDetail", time.Nanosecond},
	} {
		v, n := per(m.span, m.unit)
		res.set(m.metric, v, n)
	}
	// One Append span covers a whole slice's tags; report it per append.
	if appends > 0 {
		res.set("tshist.append_ns", float64(rec.total("tshist.Recorder.Append"))/float64(appends), appends)
	}

	res.spans = rec.spans
	shadowWall := tracedWall(rec.spans)
	res.untracedWall = live.simWall.Seconds()
	res.set("steelnetd.drive_residual_frac", 1-shadowWall.Seconds()/live.simWall.Seconds(), slices)
	res.set("bench.trace_overhead_frac", shadowWall.Seconds()/live.simWall.Seconds()-1, 1)
	return nil
}

// shadowRun steps one run the way steelnetd's drive loop does, using
// only exported calls, each under a span. What the gateway does with
// unexported code — change detection and payload encoding — is
// re-implemented here under bench.* spans so the loop's shape is the
// same; the socket side has no shadow and is the residual. Every 16th
// slice also times the registry's two read paths on their own (rep 1:
// the live loop does not make those calls separately).
func shadowRun(rec *recorder, z streamSize, p params) (slices, appends int, err error) {
	spec := z.spec(p.seed, 0)
	rules, err := steelnetd.ParseRuleSet(spec.Rules)
	if err != nil {
		return 0, 0, err
	}
	var d *core.Headless
	rec.do("core.NewHeadless", func() { d, err = core.NewHeadless(spec.Run) })
	if err != nil {
		return 0, 0, err
	}
	broker := obs.NewBroker()
	hist := tshist.NewRecorder(0, 0, 0)
	journal := steelnetd.NewJournal()
	engine := steelnetd.NewEngine(rules)
	hub := steelnetd.NewHub()
	hub.SetLimits(z.hubDepth(), 0)
	for i := 0; i < p.conns; i++ {
		_, cancel := hub.Subscribe("") // never drained: the queue holds the whole run
		defer cancel()
	}

	prev := map[string]float64{}
	var payload []byte
	rec.do("gateway_stream.shadow", func() {
		for !d.Done() {
			var s core.Sample
			rec.do("core.Headless.Step", func() { d.Step() })
			rec.do("core.Headless.Sample", func() { s = d.Sample() })
			slices++
			rec.do("obs.Broker.Publish", func() {
				err = broker.Publish(d.Registry(), nil, s.SimNS)
				broker.PublishBreaches(s.Breaches)
			})
			if err != nil {
				return
			}
			rec.do("tshist.Recorder.Append", func() {
				for _, t := range s.Tags {
					hist.Append(t.Name, s.SimNS, t.Value)
				}
			})
			appends += len(s.Tags)
			changed := 0
			rec.do("bench.encode_tags", func() {
				payload = append(payload[:0], `{"run":"`...)
				payload = append(payload, spec.ID...)
				payload = append(payload, `","seq":`...)
				payload = strconv.AppendUint(payload, s.Seq, 10)
				payload = append(payload, `,"tags":[`...)
				for _, t := range s.Tags {
					if v, seen := prev[t.Name]; seen && v == t.Value {
						continue
					}
					prev[t.Name] = t.Value
					changed++
					payload = strconv.AppendQuote(payload, t.Name)
					payload = append(payload, ':')
					payload = strconv.AppendFloat(payload, t.Value, 'g', -1, 64)
					payload = append(payload, ',')
				}
				payload = append(payload, "]}\n\n"...)
			})
			if changed > 0 {
				frame := steelnetd.Frame{Run: spec.ID, Data: append([]byte("event: tags\ndata: "), payload...)}
				rec.do("steelnetd.Hub.Publish", func() { hub.Publish(frame) })
			}
			var firings []steelnetd.Firing
			rec.do("steelnetd.Engine.Eval", func() { firings = engine.Eval(&s) })
			for _, f := range firings {
				rec.do("steelnetd.Hub.Publish", func() {
					hub.Publish(steelnetd.Frame{Run: spec.ID, Data: []byte("event: firing\ndata: {}\n\n")})
				})
				rec.do("steelnetd.Journal.RecordDetail", func() {
					journal.RecordDetail(spec.ID, steelnetd.JournalFiring, f.SimNS, f.Rule)
				})
			}
			if slices%16 == 0 {
				rec.rep = 1
				rec.do("telemetry.Registry.Values", func() { d.Registry().Values() })
				rec.do("telemetry.Registry.WritePrometheus", func() {
					err = d.Registry().WritePrometheus(io.Discard)
				})
				rec.rep = 0
				if err != nil {
					return
				}
			}
		}
	})
	return slices, appends, err
}
