package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one timed interval at a layer boundary. Every span is recorded
// from this package, around a call into a public function or between two
// events the harness observes; spans of one batch, round or request share
// a Trace. Times are nanoseconds on the run clock.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CPU is the calling thread's CPU time inside the span where the
	// harness could take it (the staged pass); 0 elsewhere.
	CPU int64 `json:"cpu_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int32(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its direct children cover. Children may overlap each other and may
// stick out of the parent; only the covered part of the parent counts.
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int32][]iv{}
	byID := map[int32]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			if v.lo > edge {
				edge = v.lo
			}
			covered += v.hi - edge
			edge = v.hi
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
