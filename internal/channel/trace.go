package channel

import (
	"fmt"
	"math"

	"flexcore/internal/cmatrix"
)

// TraceConfig parameterises a synthetic multi-user channel trace set.
// It stands in for the paper's WARP v3 measurement campaign: the paper
// itself evaluates 12-antenna APs by measuring 1×12 single-user channels
// over the air and combining them into 12×12 channels (§5.1); this
// generator performs the same combination with synthetic per-user
// frequency-selective channels.
type TraceConfig struct {
	Seed        uint64
	Users       int
	APAntennas  int
	Subcarriers []int // subcarrier indices into the TDL.NFFT grid
	Drops       int   // independent channel realisations (user placements)
	TDL         TDLConfig
	// APCorrelation is the exponential correlation coefficient between
	// adjacent AP antennas (0 = uncorrelated).
	APCorrelation float64
	// SNRSpreadDB bounds the per-user large-scale power spread. The paper
	// schedules users whose SNRs differ by no more than 3 dB.
	SNRSpreadDB float64
}

// TraceSet holds Drops×len(Subcarriers) channel matrices.
type TraceSet struct {
	Config TraceConfig
	// H[d][k] is the APAntennas×Users channel of drop d at subcarrier
	// Subcarriers[k].
	H [][]*cmatrix.Matrix
}

// Synthesize builds a deterministic trace set from the configuration.
func Synthesize(cfg TraceConfig) (*TraceSet, error) {
	if cfg.Users <= 0 || cfg.APAntennas <= 0 || cfg.Users > cfg.APAntennas {
		return nil, fmt.Errorf("channel: invalid trace dimensions %d users × %d antennas", cfg.Users, cfg.APAntennas)
	}
	if len(cfg.Subcarriers) == 0 || cfg.Drops <= 0 {
		return nil, fmt.Errorf("channel: trace set needs subcarriers and drops")
	}
	if cfg.TDL.NTaps == 0 {
		cfg.TDL = DefaultIndoorTDL
	}
	rng := NewRNG(cfg.Seed)
	var corr *cmatrix.Matrix
	if cfg.APCorrelation != 0 {
		l, err := cmatrix.Cholesky(ExponentialCorrelation(cfg.APAntennas, cfg.APCorrelation))
		if err != nil {
			return nil, fmt.Errorf("channel: AP correlation: %w", err)
		}
		corr = l
	}
	ts := &TraceSet{Config: cfg, H: make([][]*cmatrix.Matrix, cfg.Drops)}
	for d := 0; d < cfg.Drops; d++ {
		per := make([][]*cmatrix.Matrix, cfg.Users)
		gains := make([]float64, cfg.Users)
		for u := 0; u < cfg.Users; u++ {
			// Large-scale per-user gain within the scheduler's spread.
			offsetDB := (rng.Float64() - 0.5) * cfg.SNRSpreadDB
			gains[u] = math.Pow(10, offsetDB/20)
			per[u] = FreqSelective(rng, cfg.APAntennas, 1, cfg.Subcarriers, cfg.TDL)
		}
		ts.H[d] = make([]*cmatrix.Matrix, len(cfg.Subcarriers))
		for k := range cfg.Subcarriers {
			h := cmatrix.New(cfg.APAntennas, cfg.Users)
			for u := 0; u < cfg.Users; u++ {
				col := per[u][k].Col(0)
				g := complex(gains[u], 0)
				for i := 0; i < cfg.APAntennas; i++ {
					h.Set(i, u, g*col[i])
				}
			}
			if corr != nil {
				h = corr.Mul(h)
			}
			ts.H[d][k] = h
		}
	}
	return ts, nil
}

// UserSubset returns a view of the trace set restricted to the first
// `users` columns — the paper's Fig. 10 sweeps active users against a
// fixed 12-antenna AP by scheduling subsets of the measured users.
func (ts *TraceSet) UserSubset(users int) (*TraceSet, error) {
	if users <= 0 || users > ts.Config.Users {
		return nil, fmt.Errorf("channel: subset of %d users from %d", users, ts.Config.Users)
	}
	out := &TraceSet{Config: ts.Config, H: make([][]*cmatrix.Matrix, len(ts.H))}
	out.Config.Users = users
	for d := range ts.H {
		out.H[d] = make([]*cmatrix.Matrix, len(ts.H[d]))
		for k, h := range ts.H[d] {
			sub := cmatrix.New(h.Rows, users)
			for i := 0; i < h.Rows; i++ {
				for j := 0; j < users; j++ {
					sub.Set(i, j, h.At(i, j))
				}
			}
			out.H[d][k] = sub
		}
	}
	return out, nil
}
