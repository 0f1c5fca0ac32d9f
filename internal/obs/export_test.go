package obs

// Fed reports, for the event named name with operands a and b, what one
// Emit adds to each counter the event's catalog row feeds.
func Fed(name string, a, b int64) map[string]int64 {
	out := map[string]int64{}
	for _, d := range events[1:] {
		if d.name == name {
			for _, f := range d.feeds {
				out[f.m.Name()] += f.amount(a, b)
			}
		}
	}
	return out
}

// FedCounters lists every counter some event row feeds.
func FedCounters() map[string]bool {
	out := map[string]bool{}
	for _, d := range events[1:] {
		for _, f := range d.feeds {
			out[f.m.Name()] = true
		}
	}
	return out
}
