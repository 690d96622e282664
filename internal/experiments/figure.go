package experiments

import (
	"context"
	"errors"
	"fmt"
)

// ErrUnknownFigure is wrapped by Figure's error for a name it has no table
// for: a name outside FigureNames and ExtraFigureNames, or Figure 15.
var ErrUnknownFigure = errors.New("unknown figure")

// FigureNames lists every paper figure the session can produce, in
// presentation order. "15" is preformatted text (see Fig15); the rest are
// tables. The list is deliberately frozen at the paper's figures — `-figure
// all` and RunAll render exactly these — with the repo's own additions
// listed separately by ExtraFigureNames.
func FigureNames() []string {
	return []string{"15", "16", "17", "18", "19", "20", "21", "22", "23", "24", "25"}
}

// ExtraFigureNames lists the non-paper figures the session can produce on
// request: the prefetcher-arena cross product (see Arena) and the
// path-profiling evaluation (see Paths).
func ExtraFigureNames() []string {
	return []string{"arena", "paths"}
}

// Figure computes the named figure's table by name, the string-keyed
// entry point the experiments CLI and the strided daemon share. Figure 15
// has no tabular form; use FigureText for it.
func (s *Session) Figure(ctx context.Context, name string) (*Table, error) {
	switch name {
	case "16":
		return s.Fig16(ctx)
	case "17":
		return s.Fig17(ctx)
	case "18":
		return s.Fig18(ctx)
	case "19":
		return s.Fig19(ctx)
	case "20":
		return s.Fig20(ctx)
	case "21":
		return s.Fig21(ctx)
	case "22":
		return s.Fig22(ctx)
	case "23":
		return s.Fig23(ctx)
	case "24":
		return s.Fig24(ctx)
	case "25":
		return s.Fig25(ctx)
	case "arena":
		return s.Arena(ctx)
	case "paths":
		return s.Paths(ctx)
	case "15":
		return nil, fmt.Errorf("experiments: %w: figure 15 is preformatted text; use FigureText", ErrUnknownFigure)
	}
	return nil, fmt.Errorf("experiments: %w %q (want 15..25, arena or paths)", ErrUnknownFigure, name)
}

// FigureText returns the exact bytes the experiments CLI writes for
// `-figure name`: the figure's aligned text table followed by a trailing
// newline, or its CSV form when csv is set. Figure 15, which has no CSV
// form, always returns its text listing. Serving figures over HTTP goes
// through this function so daemon responses stay byte-identical to the
// CLI's files.
func (s *Session) FigureText(ctx context.Context, name string, csv bool) (string, error) {
	if name == "15" {
		return s.Fig15() + "\n", nil
	}
	t, err := s.Figure(ctx, name)
	if err != nil {
		return "", err
	}
	if csv {
		return t.CSV(), nil
	}
	return t.String() + "\n", nil
}
