// Package mlwork models the machine-learning inference workloads §5
// brings onto the factory network: video-centric inference clients
// (object identification on moving parts, casting-defect detection)
// that periodically ship camera frames to inference servers and act on
// the results. It includes the paper's input-degradation model —
// compression artifacts, frame loss and jitter reduce model accuracy
// [85-88] — so experiments can trade data quantity against prediction
// quality, and a request/response transport that fragments large frames
// into MTU-sized packets over the simulated network.
package mlwork

import (
	"math"
	"time"
)

// Profile describes one inference application class.
type Profile struct {
	Name string
	// FrameBytes is the uncompressed camera frame size.
	FrameBytes int
	// ResultBytes is the inference result size.
	ResultBytes int
	// Period is the per-client inference period.
	Period time.Duration
	// InferCPU is the server-side compute time per frame.
	InferCPU time.Duration
	// DeadlineMS is the latency budget the control loop tolerates.
	Deadline time.Duration

	// BaseAccuracy is the model's clean-input accuracy.
	BaseAccuracy float64
	// CompressionSensitivity scales the accuracy penalty of lossy
	// compression; LossSensitivity that of missing frames;
	// JitterSensitivity that of late/uneven arrivals.
	CompressionSensitivity float64
	LossSensitivity        float64
	JitterSensitivity      float64
}

// ObjectIdentification profiles the pick-and-place vision task of
// Fig. 6 (left): moderate frames, fast cadence, latency-critical.
var ObjectIdentification = Profile{
	Name:                   "object-identification",
	FrameBytes:             90 << 10,
	ResultBytes:            256,
	Period:                 100 * time.Millisecond,
	InferCPU:               900 * time.Microsecond,
	Deadline:               6 * time.Millisecond,
	BaseAccuracy:           0.97,
	CompressionSensitivity: 0.030,
	LossSensitivity:        0.35,
	JitterSensitivity:      0.010,
}

// DefectDetection profiles the casting-defect inspection task of
// Fig. 6 (right), after the Kaggle casting dataset [29]: larger frames,
// slower cadence, quality-critical.
var DefectDetection = Profile{
	Name:                   "defect-detection",
	FrameBytes:             140 << 10,
	ResultBytes:            128,
	Period:                 180 * time.Millisecond,
	InferCPU:               1400 * time.Microsecond,
	Deadline:               6 * time.Millisecond,
	BaseAccuracy:           0.993,
	CompressionSensitivity: 0.045,
	LossSensitivity:        0.50,
	JitterSensitivity:      0.006,
}

// Degradation is the network-induced input corruption §5 benchmarks
// models against.
type Degradation struct {
	// CompressionRatio >= 1: how much the frame was shrunk (1 = raw).
	CompressionRatio float64
	// LossRate in [0,1]: fraction of frames lost or unusably late.
	LossRate float64
	// Jitter is the arrival-time irregularity.
	Jitter time.Duration
}

// WireBytes returns the on-wire frame size after compression.
func (p Profile) WireBytes(d Degradation) int {
	r := d.CompressionRatio
	if r < 1 {
		r = 1
	}
	n := int(float64(p.FrameBytes) / r)
	if n < 1 {
		n = 1
	}
	return n
}

// Accuracy predicts model accuracy under degradation d: a logarithmic
// penalty for compression (mild artifacts are nearly free, aggressive
// ones are not), a linear penalty for loss, and a linear penalty for
// jitter beyond 1 ms. Clamped to [0,1].
func (p Profile) Accuracy(d Degradation) float64 {
	acc := p.BaseAccuracy
	if d.CompressionRatio > 1 {
		acc -= float64(p.CompressionSensitivity * math.Log2(d.CompressionRatio))
	}
	acc -= float64(p.LossSensitivity * d.LossRate)
	if d.Jitter > time.Millisecond {
		acc -= float64(p.JitterSensitivity * (float64(d.Jitter.Seconds()*1e3) - 1))
	}
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// ChooseCompression picks the highest compression ratio (smallest
// frames, hence lowest network load) whose predicted accuracy still
// meets minAccuracy — the quality-vs-quantity trade [88] the ML-aware
// topology design uses for dimensioning. It returns 1 when even raw
// frames miss the target.
func (p Profile) ChooseCompression(minAccuracy float64, candidates []float64) float64 {
	best := 1.0
	for _, r := range candidates {
		if r < 1 {
			continue
		}
		if p.Accuracy(Degradation{CompressionRatio: r}) >= minAccuracy && r > best {
			best = r
		}
	}
	return best
}
