package mltopo

import (
	"fmt"
	"time"

	"steelnet/internal/sweep"
	"steelnet/internal/topo"
)

// Demand describes one client's offered load for the optimizer.
type Demand struct {
	ClientIdx int
	// BytesPerSecond is the client's mean request volume after the
	// quality/quantity compression trade.
	BytesPerSecond float64
	// Pod is the client's physical location (production cell index);
	// the optimizer cannot move clients, only compute and links.
	Pod int
}

// Plan is the optimizer's output: where fog servers go, how clients
// map to them, and which links get dimensioned up.
type Plan struct {
	// PodOfServer maps each server to the pod switch it is placed at.
	PodOfServer []int
	// ServerOfClient maps each client index to its server index.
	ServerOfClient []int
	// PodTrunkBps is the dimensioned uplink rate per pod.
	PodTrunkBps []float64
	// AggBps is the rate of the aggregation links.
	AggBps float64
}

// Optimize is the traffic-aware placement-and-dimensioning heuristic
// behind the "ML-aware" topology: group clients by physical pod, place
// the compute budget (nServers) greedily at the pods with the highest
// residual demand so requests stay local, assign every client to the
// nearest (same-pod, else least-loaded) server, and dimension each pod
// trunk to a target utilization of its remaining cross-pod traffic.
func Optimize(demands []Demand, nServers, nPods int, targetUtil float64) Plan {
	if nServers < 1 {
		nServers = 1
	}
	if targetUtil <= 0 || targetUtil > 1 {
		targetUtil = 0.4
	}
	podDemand := make([]float64, nPods)
	for _, d := range demands {
		podDemand[d.Pod] += d.BytesPerSecond
	}
	// Greedy placement: repeatedly give a server to the pod with the
	// most unserved demand. A server "serves" up to its fair share.
	plan := Plan{
		PodOfServer:    make([]int, nServers),
		ServerOfClient: make([]int, len(demands)),
		PodTrunkBps:    make([]float64, nPods),
	}
	var total float64
	for _, d := range podDemand {
		total += d
	}
	perServer := total / float64(nServers)
	residual := append([]float64(nil), podDemand...)
	for s := 0; s < nServers; s++ {
		best := 0
		for p := 1; p < nPods; p++ {
			if residual[p] > residual[best] {
				best = p
			}
		}
		plan.PodOfServer[s] = best
		residual[best] -= perServer
	}
	// Assignment: same-pod server with the least load, else the
	// globally least-loaded server.
	load := make([]float64, nServers)
	for i, d := range demands {
		bestIdx, bestLoad := -1, 0.0
		for s := 0; s < nServers; s++ {
			if plan.PodOfServer[s] != d.Pod {
				continue
			}
			if bestIdx == -1 || load[s] < bestLoad {
				bestIdx, bestLoad = s, load[s]
			}
		}
		if bestIdx == -1 {
			for s := 0; s < nServers; s++ {
				if bestIdx == -1 || load[s] < bestLoad {
					bestIdx, bestLoad = s, load[s]
				}
			}
		}
		plan.ServerOfClient[i] = bestIdx
		load[bestIdx] += d.BytesPerSecond
	}
	// Dimensioning: each pod trunk carries the traffic of its clients
	// served remotely plus remote clients served here; provision for
	// targetUtil, with a 1 Gb/s floor.
	cross := make([]float64, nPods)
	for i, d := range demands {
		sPod := plan.PodOfServer[plan.ServerOfClient[i]]
		if sPod != d.Pod {
			cross[d.Pod] += d.BytesPerSecond
			cross[sPod] += d.BytesPerSecond
		}
	}
	var maxTrunk float64
	for p := 0; p < nPods; p++ {
		bps := cross[p] * 8 / targetUtil
		if bps < 1e9 {
			bps = 1e9
		}
		plan.PodTrunkBps[p] = bps
		if bps > maxTrunk {
			maxTrunk = bps
		}
	}
	plan.AggBps = maxTrunk * 2
	if plan.AggBps < 10e9 {
		plan.AggBps = 10e9
	}
	return plan
}

// LocalityFraction returns the fraction of demand served in-pod — the
// optimizer's headline metric.
func (p Plan) LocalityFraction(demands []Demand) float64 {
	var local, total float64
	for i, d := range demands {
		total += d.BytesPerSecond
		if p.PodOfServer[p.ServerOfClient[i]] == d.Pod {
			local += d.BytesPerSecond
		}
	}
	if total == 0 {
		return 1
	}
	return local / total
}

// buildMLAware: the traffic-aware design. Clients stay in their pods
// (one pod switch per 16 clients, as in the leaf-spine); the optimizer
// places the same server budget at pod switches, assigns clients to
// local fog servers, and dimensions pod trunks to two aggregation
// switches.
func buildMLAware(sc Scenario) plant {
	nSrv := serverCount(sc)
	nPods := (sc.Clients + 15) / 16
	if nPods < 1 {
		nPods = 1
	}
	bytesPerSec := float64(sc.Profile.WireBytes(sc.Deg)) / sc.Profile.Period.Seconds()
	demands := make([]Demand, sc.Clients)
	for i := range demands {
		demands[i] = Demand{ClientIdx: i, BytesPerSecond: bytesPerSec, Pod: i / 16}
	}
	plan := Optimize(demands, nSrv, nPods, 0.4)
	trunk := func(p int) float64 {
		if sc.PlacementOnly {
			return 1e9
		}
		return plan.PodTrunkBps[p]
	}
	fogAttach := 10e9
	if sc.PlacementOnly {
		fogAttach = 1e9
	}

	g := topo.NewGraph("ml-aware")
	agg := []topo.NodeID{
		g.AddNode("agg0", topo.KindSwitch),
		g.AddNode("agg1", topo.KindSwitch),
	}
	pods := make([]topo.NodeID, nPods)
	for p := 0; p < nPods; p++ {
		pods[p] = g.AddNode(fmt.Sprintf("pod%d", p), topo.KindSwitch)
		for _, a := range agg {
			g.AddEdge(pods[p], a, trunk(p), 500)
		}
	}
	clientNode := make([]topo.NodeID, sc.Clients)
	for i := 0; i < sc.Clients; i++ {
		clientNode[i] = g.AddNode(fmt.Sprintf("cam%d", i), topo.KindHost)
		g.AddEdge(pods[i/16], clientNode[i], 1e9, 500)
	}
	serverNode := make([]topo.NodeID, nSrv)
	for s := 0; s < nSrv; s++ {
		serverNode[s] = g.AddNode(fmt.Sprintf("fog%d", s), topo.KindServer)
		g.AddEdge(pods[plan.PodOfServer[s]], serverNode[s], fogAttach, 500)
	}
	return plant{bp: routed(g), clientNode: clientNode, serverNode: serverNode,
		assign: func(i int) int { return plan.ServerOfClient[i] }}
}

// Figure6Config parameterizes the full Fig. 6 sweep.
type Figure6Config struct {
	Seed         uint64
	ClientCounts []int
	Horizon      time.Duration
	// Workers bounds the goroutines running sweep cells. <= 0 selects
	// runtime.NumCPU(); 1 runs serially. Output is identical either way.
	Workers int
	// INT attaches in-band telemetry to every cell.
	INT bool
	// Sinks are the sweep's own telemetry sinks; each cell reports into
	// the set sweep.RunCells derives from them, which also decides what
	// merges per cell and what forces the sweep serial.
	sweep.Sinks
}

// DefaultFigure6Config matches the paper's x-axis.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{Seed: 1, ClientCounts: []int{32, 64, 128, 256}, Horizon: 2 * time.Second}
}
