package steelnetd

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"steelnet/internal/core"
)

// testRun is a short scenario whose failover, loss and SLO breaches all
// land inside a 400 ms horizon — every rule kind has something to fire
// on, and a run completes in milliseconds of wall time.
func testRun(seed uint64) core.HeadlessConfig {
	return core.HeadlessConfig{
		Seed:    seed,
		Horizon: 400 * time.Millisecond,
		Slice:   50 * time.Millisecond,
		SLO:     "latency:*<1µs",
	}
}

const testRules = `loss:*>0.1->kafka:alerts;breach:*>0->mqtt:plant/slo;tag:steelnet_host_rx_total{node="io"}>100->kafka:io`

func TestGatewayRunLifecycle(t *testing.T) {
	kafka := NewFakeKafka()
	mqtt := NewFakeMQTT()
	g := NewGateway(GatewayConfig{Backends: Backends{"kafka": kafka, "mqtt": mqtt}})
	defer g.Close()

	id, err := g.Start(RunSpec{ID: "mill", Run: testRun(1), Rules: testRules})
	if err != nil {
		t.Fatal(err)
	}
	if id != "mill" {
		t.Fatalf("id = %q", id)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, ok := g.Status(id)
	if !ok || st.State != StateDone {
		t.Fatalf("status = %+v, want done", st)
	}
	if st.Seq != 8 { // 400ms / 50ms slices
		t.Errorf("final seq = %d, want 8", st.Seq)
	}
	if st.SimNS != int64(400*time.Millisecond) {
		t.Errorf("final sim_ns = %d", st.SimNS)
	}
	if st.Firings == 0 {
		t.Error("no rule firings in a run with loss, breaches and traffic")
	}
	if kafka.Total() == 0 || mqtt.Total() == 0 {
		t.Errorf("northbound publishes: kafka=%d mqtt=%d, want both > 0", kafka.Total(), mqtt.Total())
	}
	if got := kafka.Total() + mqtt.Total(); got != st.Firings {
		t.Errorf("backends hold %d records, the run counted %d firings", got, st.Firings)
	}
	// Every record is keyed by the run and carries valid firing JSON.
	for _, r := range kafka.Records() {
		if r.Key != "mill" {
			t.Fatalf("kafka record keyed %q, want the run ID", r.Key)
		}
		var f struct {
			Run  string `json:"run"`
			Rule string `json:"rule"`
			Seq  uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(r.Payload), &f); err != nil {
			t.Fatalf("payload %q: %v", r.Payload, err)
		}
		if f.Run != "mill" || f.Rule == "" || f.Seq == 0 {
			t.Fatalf("firing payload %+v", f)
		}
	}
}

func TestGatewayStartErrors(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	if _, err := g.Start(RunSpec{Run: testRun(1), Rules: "bogus:*>1->kafka:t"}); err == nil {
		t.Error("bad rule spec accepted")
	}
	if _, err := g.Start(RunSpec{Run: testRun(1), Rules: "loss:*>0.1->nats:t"}); err == nil {
		t.Error("unknown backend accepted")
	}
	bad := testRun(1)
	bad.Slice = time.Second // exceeds horizon
	if _, err := g.Start(RunSpec{Run: bad}); err == nil {
		t.Error("bad run spec accepted")
	}
	if _, err := g.Start(RunSpec{ID: "dup", Run: testRun(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Start(RunSpec{ID: "dup", Run: testRun(2)}); err == nil {
		t.Error("duplicate run ID accepted")
	}
	if err := g.Stop("nosuch"); err == nil {
		t.Error("Stop on unknown run succeeded")
	}
	if err := g.Wait("nosuch"); err == nil {
		t.Error("Wait on unknown run succeeded")
	}
	if _, ok := g.Status("nosuch"); ok {
		t.Error("Status on unknown run succeeded")
	}
	if _, ok := g.Broker("nosuch"); ok {
		t.Error("Broker on unknown run succeeded")
	}
	if err := g.Remove("nosuch"); err == nil {
		t.Error("Remove on unknown run succeeded")
	}
}

func TestGatewayAutoIDAndList(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	id1, err := g.Start(RunSpec{Run: testRun(1)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := g.Start(RunSpec{Run: testRun(2)})
	if err != nil {
		t.Fatal(err)
	}
	if id1 != "run-1" || id2 != "run-2" {
		t.Fatalf("auto IDs %q, %q", id1, id2)
	}
	list := g.List()
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("List() = %+v, want start order", list)
	}
	g.Wait(id1) //nolint:errcheck
	g.Wait(id2) //nolint:errcheck
	if err := g.Remove(id1); err != nil {
		t.Fatal(err)
	}
	if list := g.List(); len(list) != 1 || list[0].ID != id2 {
		t.Fatalf("List() after Remove = %+v", list)
	}
}

func TestGatewayStop(t *testing.T) {
	g := NewGateway(GatewayConfig{MaxConcurrent: 1})
	defer g.Close()
	long := testRun(1)
	long.Horizon = 30 * time.Second // long enough to catch mid-flight
	id1, err := g.Start(RunSpec{ID: "long", Run: long})
	if err != nil {
		t.Fatal(err)
	}
	// A second run queues behind MaxConcurrent=1; stopping it while
	// queued must release it without it ever stepping.
	id2, err := g.Start(RunSpec{ID: "queued", Run: testRun(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Stop(id2); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id2); err != nil {
		t.Fatal(err)
	}
	if st, _ := g.Status(id2); st.State != StateStopped {
		t.Fatalf("queued run state = %s, want stopped", st.State)
	}
	if err := g.Stop(id1); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id1); err != nil {
		t.Fatal(err)
	}
	if st, _ := g.Status(id1); st.State != StateStopped {
		t.Fatalf("state = %s, want stopped", st.State)
	}
	if err := g.Stop(id1); err != nil {
		t.Error("second Stop not idempotent:", err)
	}
}

func TestGatewayBrokerPublishes(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	id, err := g.Start(RunSpec{ID: "obs", Run: testRun(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	b, ok := g.Broker(id)
	if !ok {
		t.Fatal("no broker for the run")
	}
	snap := b.Current()
	if snap.Seq != 8 {
		t.Errorf("broker snapshot seq = %d, want one per slice (8)", snap.Seq)
	}
	if !strings.Contains(snap.Metrics, "steelnet_host_rx_total") {
		t.Error("broker snapshot missing host metrics")
	}
}

func TestGatewayHubSeesTagsAndFirings(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	g.Hub().SetLimits(4096, 0)
	ch, cancel := g.Hub().Subscribe("")
	defer cancel()
	id, err := g.Start(RunSpec{ID: "hubbed", Run: testRun(1), Rules: testRules})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	var tags, firings int
	for done := false; !done; {
		select {
		case f := <-ch:
			s := string(f.Data)
			if f.Run != id {
				t.Fatalf("frame from run %q", f.Run)
			}
			switch {
			case strings.HasPrefix(s, "event: tags\n"):
				tags++
			case strings.HasPrefix(s, "event: firing\n"):
				firings++
			default:
				t.Fatalf("unexpected frame %q", s)
			}
		default:
			done = true
		}
	}
	if tags == 0 || firings == 0 {
		t.Fatalf("hub saw %d tag frames, %d firing frames; want both > 0", tags, firings)
	}
}

func TestGatewayBackendNames(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	defer g.Close()
	names := g.BackendNames()
	if len(names) != 3 || names[0] != "kafka" || names[1] != "log" || names[2] != "mqtt" {
		t.Fatalf("BackendNames() = %v", names)
	}
	if _, ok := g.Backend("kafka"); !ok {
		t.Error("Backend(kafka) missing")
	}
	if _, ok := g.Backend("nats"); ok {
		t.Error("Backend(nats) exists")
	}
}
