package simnet

import (
	"strings"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
	"steelnet/internal/topo"
)

// Network-level registration: one call must expose every switch, host,
// link and the engine, with counters that read the live values.
func TestNetworkRegisterMetricsAndTracer(t *testing.T) {
	e := sim.NewEngine(1)
	g := topo.Line(2, 1, topo.LinkOT1G, topo.LinkOT1G)
	n := Build(e, g, SwitchConfig{Latency: sim.Microsecond})

	tr := telemetry.NewTracer(nil)
	n.SetTracer(0, tr)
	r := telemetry.NewRegistry()
	n.RegisterMetrics(r)

	hosts := g.NodesOfKind(topo.KindHost)
	h0, h1 := n.Host(hosts[0]), n.Host(hosts[1])
	h1.OnReceive(func(*frame.Frame) {})
	h0.Send(&frame.Frame{Dst: h1.MAC(), Payload: make([]byte, 30)})
	e.Run()

	if tr.Len() == 0 {
		t.Fatal("network tracer recorded nothing")
	}
	snap := r.Snapshot()
	for _, want := range []string{
		"steelnet_switch_forwarded_total",
		"steelnet_switch_flooded_total",
		"steelnet_host_rx_total",
		"steelnet_link_delivered_total",
		"steelnet_link_up",
		"steelnet_port_tx_frames_total",
		"steelnet_port_queue_high_water",
		"sim_events_fired_total",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	// Func-backed: the exposition reads the live counter, so the one
	// delivered frame is visible without any re-registration.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	if !strings.Contains(prom, `steelnet_host_rx_total{node="`+h1.Name()+`"} 1`) {
		t.Fatalf("host rx counter not live:\n%s", prom)
	}
	if !strings.Contains(prom, `steelnet_link_up{link="`) {
		t.Fatalf("link up gauge missing:\n%s", prom)
	}

	// Ports covers every switch port and every host port — the set a
	// whole-network conservation check wants.
	wantPorts := 0
	for _, id := range g.NodesOfKind(topo.KindSwitch) {
		wantPorts += n.Switch(id).NumPorts()
	}
	wantPorts += len(hosts)
	ports := n.Ports()
	if len(ports) != wantPorts {
		t.Fatalf("Ports() = %d, want %d", len(ports), wantPorts)
	}
	acct := Account(ports...)
	if err := acct.Check(); err != nil {
		t.Fatal(err)
	}
	if acct.Accepted == 0 || acct.Delivered == 0 {
		t.Fatalf("accounting saw no traffic: %+v", acct)
	}
}

// Per-port drop counters carry their cause as a label, one time series
// per cause.
func TestPortMetricsDropCauses(t *testing.T) {
	e := sim.NewEngine(1)
	h := NewHost(e, "h", frame.NewMAC(1))
	r := telemetry.NewRegistry()
	RegisterPortMetrics(r, h.Port())
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, cause := range []string{"overflow", "link-down", "shaper", "flush", "wire", "injected", "switch-failed"} {
		want := `steelnet_port_drops_total{node="h",port="0",cause="` + cause + `"} 0`
		if !strings.Contains(out, want) {
			t.Errorf("missing per-cause drop series %q in:\n%s", want, out)
		}
	}
}

func TestAccountingCheckReportsViolation(t *testing.T) {
	a := Accounting{Accepted: 3, Delivered: 1}
	err := a.Check()
	if err == nil {
		t.Fatal("imbalanced ledger passed Check")
	}
	if !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("unexpected error: %v", err)
	}
}
