package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// exposition is a parsed /metrics scrape: unlabeled samples by name, and
// the cumulative buckets of each histogram.
type exposition struct {
	counters map[string]float64
	hists    map[string][]bucket
}

type bucket struct {
	le    float64
	count float64
}

func (b *serveBench) scrape() (*exposition, error) {
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	e := &exposition{counters: make(map[string]float64), hists: make(map[string][]bucket)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			le, ok := strings.CutPrefix(strings.TrimSuffix(labels, "}"), `le="`)
			if !ok {
				continue
			}
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"`), 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics: bucket bound in %q", line)
			}
			e.hists[base] = append(e.hists[base], bucket{le: bound, count: v})
			continue
		}
		if labels == "" {
			e.counters[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, bs := range e.hists {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	}
	return e, nil
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket
// that holds it (0 when it gained none).
func histQuantile(before, after []bucket, q float64) float64 {
	prev := make(map[float64]float64, len(before))
	for _, b := range before {
		prev[b.le] = b.count
	}
	var total float64
	if len(after) > 0 {
		total = after[len(after)-1].count - prev[after[len(after)-1].le]
	}
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range after {
		n := b.count - prev[b.le]
		if n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(n-below)
		}
		lo, below = b.le, n
	}
	return lo
}
