package simnet

// ColdPorts counts the ports of n that have allocated their cold block.
func ColdPorts(n *Network) int {
	cold := 0
	for _, p := range n.Ports() {
		if p.cold != nil {
			cold++
		}
	}
	return cold
}
