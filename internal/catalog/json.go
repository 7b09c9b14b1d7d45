package catalog

// The JSON wire form of a catalog entry, shared by fxnetd's /v1/models
// endpoints, fxmodel ls -json and fxanalyze -mode model. Go's
// encoding/json rejects NaN and ±Inf, which degenerate fits legitimately
// produce (a constant series has an undefined correlation), so float
// fields marshal through a nullable wrapper: non-finite becomes null,
// and null parses back to NaN.

import (
	"encoding/json"
	"math"
)

// JSONFloat marshals NaN/±Inf as null.
type JSONFloat float64

// MarshalJSON renders non-finite values as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON parses null as NaN.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// ComponentJSON is one retained spectral spike.
type ComponentJSON struct {
	FreqHz  JSONFloat `json:"freq_hz"`
	CoeffRe JSONFloat `json:"coeff_re"`
	CoeffIm JSONFloat `json:"coeff_im"`
	// AmplitudeKBps is the component's peak-to-peak contribution 2|a|,
	// derived for readability.
	AmplitudeKBps JSONFloat `json:"amplitude_kbps"`
}

// EntryJSON is the wire form of an Entry.
type EntryJSON struct {
	Key         string  `json:"key"`
	Program     string  `json:"program"`
	P           int     `json:"p"`
	Seed        int64   `json:"seed"`
	BitRateBps  float64 `json:"bitrate_bps,omitempty"`
	Switched    bool    `json:"switched,omitempty"`
	FaultScript string  `json:"faults,omitempty"`

	Spikes   int       `json:"spikes"`
	MinSepHz JSONFloat `json:"min_sep_hz"`

	DCKBps     JSONFloat       `json:"dc_kbps"`
	Components []ComponentJSON `json:"components"`

	SeriesDT JSONFloat `json:"series_dt_s"`
	SeriesN  int       `json:"series_n"`

	MeasuredMeanKBps JSONFloat `json:"measured_mean_kbps"`
	ModelMeanKBps    JSONFloat `json:"model_mean_kbps"`
	MeanRelErr       JSONFloat `json:"mean_rel_err"`
	RMSErrKBps       JSONFloat `json:"rms_err_kbps"`
	NRMSE            JSONFloat `json:"nrmse"`
	Correlation      JSONFloat `json:"correlation"`
	EnergyFraction   JSONFloat `json:"energy_fraction"`

	FundamentalHz JSONFloat `json:"fundamental_hz"`
	PeakKBps      JSONFloat `json:"peak_kbps"`
}

// ToJSON converts an entry to its wire form.
func ToJSON(e *Entry) EntryJSON {
	out := EntryJSON{
		Key:              e.Key,
		Program:          e.Program,
		P:                e.P,
		Seed:             e.Seed,
		BitRateBps:       e.BitRateBps,
		Switched:         e.Switched,
		FaultScript:      e.FaultScript,
		Spikes:           e.Spikes,
		MinSepHz:         JSONFloat(e.MinSepHz),
		DCKBps:           JSONFloat(e.Model.DC),
		Components:       make([]ComponentJSON, 0, len(e.Model.Components)),
		SeriesDT:         JSONFloat(e.SeriesDT),
		SeriesN:          e.SeriesN,
		MeasuredMeanKBps: JSONFloat(e.MeasuredMeanKBps),
		ModelMeanKBps:    JSONFloat(e.ModelMeanKBps),
		MeanRelErr:       JSONFloat(e.MeanRelErr),
		RMSErrKBps:       JSONFloat(e.RMSErrKBps),
		NRMSE:            JSONFloat(e.NRMSE),
		Correlation:      JSONFloat(e.Correlation),
		EnergyFraction:   JSONFloat(e.EnergyFraction),
		FundamentalHz:    JSONFloat(e.FundamentalHz),
		PeakKBps:         JSONFloat(e.PeakKBps),
	}
	for _, c := range e.Model.Components {
		out.Components = append(out.Components, ComponentJSON{
			FreqHz:        JSONFloat(c.Freq),
			CoeffRe:       JSONFloat(real(c.Coeff)),
			CoeffIm:       JSONFloat(imag(c.Coeff)),
			AmplitudeKBps: JSONFloat(2 * math.Hypot(real(c.Coeff), imag(c.Coeff))),
		})
	}
	return out
}
