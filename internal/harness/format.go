package harness

import (
	"fmt"
	"math"
	"strings"
)

// Table renders the figure as an aligned text table.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "  y = %s\n", f.YName)

	wide := len(f.XName)
	for _, x := range f.XLabels {
		if len(x) > wide {
			wide = len(x)
		}
	}
	colw := make([]int, len(f.Series))
	for i, s := range f.Series {
		colw[i] = len(s.Name)
		if colw[i] < 9 {
			colw[i] = 9
		}
	}
	fmt.Fprintf(&b, "  %-*s", wide, f.XName)
	for i, s := range f.Series {
		fmt.Fprintf(&b, "  %*s", colw[i], s.Name)
	}
	b.WriteByte('\n')
	for row, x := range f.XLabels {
		fmt.Fprintf(&b, "  %-*s", wide, x)
		for i, s := range f.Series {
			if row < len(s.Y) && !math.IsNaN(s.Y[row]) {
				fmt.Fprintf(&b, "  %*.3f", colw[i], s.Y[row])
			} else {
				fmt.Fprintf(&b, "  %*s", colw[i], "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XName))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for row, x := range f.XLabels {
		b.WriteString(csvEscape(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			if row < len(s.Y) && !math.IsNaN(s.Y[row]) {
				fmt.Fprintf(&b, "%g", s.Y[row])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// improvement returns (a/b - 1) as a percentage, guarding zeros.
func improvement(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

// ImprovementRange returns the min and max percentage improvement of
// the target series over the best other series, across all x points
// where both are present — the form of the paper's headline claims
// ("DIALGA achieves 20.1–96.6% improvement over the best alternative").
func (f *Figure) ImprovementRange(target string) (minPct, maxPct float64, ok bool) {
	var tgt *Series
	for i := range f.Series {
		if f.Series[i].Name == target {
			tgt = &f.Series[i]
		}
	}
	if tgt == nil {
		return 0, 0, false
	}
	minPct, maxPct = math.Inf(1), math.Inf(-1)
	for row := range f.XLabels {
		if row >= len(tgt.Y) || math.IsNaN(tgt.Y[row]) {
			continue
		}
		best := math.Inf(-1)
		for i := range f.Series {
			s := &f.Series[i]
			if s.Name == target || row >= len(s.Y) || math.IsNaN(s.Y[row]) {
				continue
			}
			if s.Y[row] > best {
				best = s.Y[row]
			}
		}
		if math.IsInf(best, -1) || best <= 0 {
			continue
		}
		imp := improvement(tgt.Y[row], best)
		if imp < minPct {
			minPct = imp
		}
		if imp > maxPct {
			maxPct = imp
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return minPct, maxPct, true
}

// bytesLabel renders a block size the way the paper does.
func bytesLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
