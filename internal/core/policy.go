package core

// Action is a decision about the host-local response level.
type Action int

// Level decisions.
const (
	Hold Action = iota
	Raise
	Lower
)

func (a Action) String() string {
	switch a {
	case Hold:
		return "hold"
	case Raise:
		return "raise"
	case Lower:
		return "lower"
	}
	return "unknown"
}

// decide is the paper's host resource allocation policy (Figure 6). It
// compares the filtered occupancy is with the threshold it, and the
// filtered PCIe bandwidth bs with the target bt (bytes/sec, bt already
// including PCIe overhead): raise the level under regime 3 (host
// congested, network below target), lower it under regime 1 (host idle,
// network at target), hold otherwise. Both comparisons are strict.
func decide(is, it, bs, bt float64) Action {
	congested := is > it
	below := bs < bt
	switch {
	case congested && below:
		return Raise // regime 3
	case !congested && !below:
		return Lower // regime 1
	default:
		return Hold // regimes 2 and 4
	}
}
