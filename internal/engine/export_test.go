package engine

// LoopbackAddrs lists the addresses of the node daemons Open started for h.
func LoopbackAddrs(h *Handle) []string {
	if h.loopback == nil {
		return nil
	}
	return h.loopback.Addrs
}
