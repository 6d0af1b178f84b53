package main

// pins are the SHA-256 digests of every workload's checked outputs at
// full size for -seed 1. They do not depend on the worker or
// connection count. A change that is meant to leave the simulator's
// and the gateway's outputs alone must leave these alone; one that
// changes outputs on purpose re-pins them and says so.
var pins = map[string]string{
	// Rendered tables: Fig. 4 delay + jitter, Fig. 5, Fig. 6.
	"paper_figs/fig4": "622e63ca2d7a792433a890d73f6e3903366d689395e961f6e0f55909e92d87e0",
	"paper_figs/fig5": "ed5764cc0f04830d04bc402baa5c34ff51049b1533a3c930041940c985390f01",
	"paper_figs/fig6": "5d783994b538867ad010af4393cb9540375ddc1ee6b464c4abbdc818e6044280",
	// CampusHarness.Digest() and the frame-conservation ledger.
	"campus_10k/output": "f373c55f3ca6825d245ed307b59cdc719c25fe0b40d1664b57aa5e4c94ec9fb7",
	// Kafka log, MQTT log and lifecycle journal of the four runs.
	"gateway_stream/output": "486eafdea5e6069d551a8a2be4d3e42e6391e5f6412e39e01927f95c4f19cd9a",
	// Bodies of every run-scoped route over the four finished runs.
	"gateway_query/bodies": "c214748d5771a5e3192ca7847b4489e60129517b2aae3dfb0bac3f6da3aebd9c",
}
