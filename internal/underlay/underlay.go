// Package underlay models the IP network beneath an EGOIST overlay: the
// true pairwise one-way delays between sites, per-node CPU load, and the
// available bandwidth between sites constrained by AS peering points.
//
// The paper ran on PlanetLab; this package is the synthetic substitute.
// It reproduces the structural properties the
// evaluation depends on — geographically clustered delays, high-variance
// node load, and per-session rate caps at AS peering points — without
// requiring the real testbed. All state evolves deterministically from a
// caller-provided seed.
package underlay

import (
	"fmt"
	"math"
	"math/rand"
)

// Region is a coarse geographic region used to place sites, mirroring the
// paper's 50-node PlanetLab deployment (30 NA, 11 EU, 7 Asia, 1 SA,
// 1 Oceania).
type Region int

// Regions in the paper's deployment.
const (
	NorthAmerica Region = iota
	Europe
	Asia
	SouthAmerica
	Oceania
	numRegions
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "NorthAmerica"
	case Europe:
		return "Europe"
	case Asia:
		return "Asia"
	case SouthAmerica:
		return "SouthAmerica"
	case Oceania:
		return "Oceania"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// regionCenter gives an approximate (latitude, longitude) in degrees for
// each region's center of mass of PlanetLab sites.
var regionCenter = [numRegions][2]float64{
	NorthAmerica: {40, -95},
	Europe:       {50, 10},
	Asia:         {33, 115},
	SouthAmerica: {-15, -55},
	Oceania:      {-33, 150},
}

// regionSpread is the per-region placement jitter in degrees.
var regionSpread = [numRegions]float64{
	NorthAmerica: 14,
	Europe:       8,
	Asia:         12,
	SouthAmerica: 8,
	Oceania:      6,
}

// PlanetLabMix returns the per-region node counts of the paper's 50-node
// deployment scaled proportionally to n total nodes. The counts always sum
// to n and every region keeps at least one node when n >= 5.
func PlanetLabMix(n int) [5]int {
	base := [5]float64{30, 11, 7, 1, 1}
	var counts [5]int
	assigned := 0
	for i, b := range base {
		c := int(math.Floor(b / 50 * float64(n)))
		if n >= 5 && c == 0 {
			c = 1
		}
		counts[i] = c
		assigned += c
	}
	// Distribute the remainder to the largest regions first.
	for i := 0; assigned < n; i = (i + 1) % 5 {
		counts[i]++
		assigned++
	}
	for i := 0; assigned > n; i = (i + 1) % 5 {
		if counts[i] > 1 {
			counts[i]--
			assigned--
		}
	}
	return counts
}

// Site is a physical host participating in the overlay.
type Site struct {
	Region Region
	Lat    float64 // degrees
	Lon    float64 // degrees
	AS     int     // autonomous system this site lives in
}

// Config parameterizes a synthetic underlay.
type Config struct {
	N    int   // number of sites
	Seed int64 // RNG seed; all dynamics are deterministic given the seed

	// Delay model.
	PropagationFactor float64 // ms per km of great-circle distance; default 0.015 (~2/3 c plus routing inflation)
	AccessDelayMS     float64 // fixed per-end access delay in ms; default 2
	JitterFrac        float64 // stddev of multiplicative delay noise; default 0.08

	// Load model (Ornstein–Uhlenbeck around the mean).
	LoadMean      float64 // default 2.0 (PlanetLab-like loadavg)
	LoadStddev    float64 // default 1.5
	LoadReversion float64 // mean-reversion rate per step; default 0.3

	// Bandwidth / AS model.
	ASCount          int     // number of ASes; default max(2, N/8)
	MultihomeProb    float64 // probability a site's AS is multihomed (has >1 peering); default 0.5
	PeeringCapMbps   float64 // per-session rate cap at a peering point; default 10
	AccessCapMbps    float64 // site access link capacity; default 100
	BandwidthJitter  float64 // relative noise on available bandwidth; default 0.1
	IntraASCapMbps   float64 // capacity between two sites in the same AS; default 80
	PeeringPerASMean float64 // mean number of peering links per AS; default 2.5
}

func (c *Config) applyDefaults() {
	if c.PropagationFactor == 0 {
		c.PropagationFactor = 0.015
	}
	if c.AccessDelayMS == 0 {
		c.AccessDelayMS = 2
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.08
	}
	if c.LoadMean == 0 {
		c.LoadMean = 2.0
	}
	if c.LoadStddev == 0 {
		c.LoadStddev = 1.5
	}
	if c.LoadReversion == 0 {
		c.LoadReversion = 0.3
	}
	if c.ASCount == 0 {
		c.ASCount = c.N / 8
		if c.ASCount < 2 {
			c.ASCount = 2
		}
	}
	if c.MultihomeProb == 0 {
		c.MultihomeProb = 0.5
	}
	if c.PeeringCapMbps == 0 {
		c.PeeringCapMbps = 10
	}
	if c.AccessCapMbps == 0 {
		c.AccessCapMbps = 100
	}
	if c.BandwidthJitter == 0 {
		c.BandwidthJitter = 0.1
	}
	if c.IntraASCapMbps == 0 {
		c.IntraASCapMbps = 80
	}
	if c.PeeringPerASMean == 0 {
		c.PeeringPerASMean = 2.5
	}
}

// Underlay is the synthetic IP network. The true pairwise delays and
// bandwidths are hidden from overlay nodes, which observe them only through
// the probe package's noisy estimators.
type Underlay struct {
	cfg   Config
	rng   *rand.Rand
	sites []Site

	baseDelay [][]float64 // quiescent one-way delay in ms
	jitter    [][]float64 // current multiplicative jitter factor
	load      []float64   // current per-node load
	availBW   [][]float64 // current available bandwidth in Mbps

	asPeers  map[[2]int]bool // unordered AS adjacency
	asOfSite []int
}

// New builds a synthetic underlay from cfg. It returns an error if the
// configuration is invalid.
func New(cfg Config) (*Underlay, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("underlay: need at least 2 sites, got %d", cfg.N)
	}
	cfg.applyDefaults()
	u := &Underlay{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	u.sites = placeSites(cfg.N, u.rng)
	u.buildASTopology()
	u.computeBaseDelays()
	u.initDynamics()
	return u, nil
}

// N returns the number of sites.
func (u *Underlay) N() int { return u.cfg.N }

// Site returns the i-th site descriptor.
func (u *Underlay) Site(i int) Site { return u.sites[i] }

// placeSites draws n sites with the PlanetLab regional mix from rng.
func placeSites(n int, rng *rand.Rand) []Site {
	mix := PlanetLabMix(n)
	sites := make([]Site, 0, n)
	for r := Region(0); r < numRegions; r++ {
		for j := 0; j < mix[r]; j++ {
			sites = append(sites, Site{
				Region: r,
				Lat:    clampLat(regionCenter[r][0] + rng.NormFloat64()*regionSpread[r]),
				Lon:    wrapLon(regionCenter[r][1] + rng.NormFloat64()*regionSpread[r]*2),
			})
		}
	}
	// Node identifiers are not geographically sorted on real testbeds;
	// shuffle so id-ring constructions (k-Regular, enforced cycles,
	// HybridBR backbones) cross regions the way they would on PlanetLab.
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return sites
}

func (u *Underlay) buildASTopology() {
	n := u.cfg.N
	u.asOfSite = make([]int, n)
	for i := 0; i < n; i++ {
		// Sites in the same region tend to share ASes: hash region into the
		// AS choice so ASes are geographically coherent.
		u.asOfSite[i] = (int(u.sites[i].Region)*7 + u.rng.Intn(u.cfg.ASCount)) % u.cfg.ASCount
	}
	// Peering: ring over ASes for connectivity plus random extra peerings,
	// controlled by PeeringPerASMean and MultihomeProb.
	u.asPeers = make(map[[2]int]bool)
	for a := 0; a < u.cfg.ASCount; a++ {
		u.addPeering(a, (a+1)%u.cfg.ASCount)
	}
	extra := int(float64(u.cfg.ASCount) * (u.cfg.PeeringPerASMean - 2) / 2)
	for e := 0; e < extra; e++ {
		a := u.rng.Intn(u.cfg.ASCount)
		if u.rng.Float64() > u.cfg.MultihomeProb {
			continue
		}
		b := u.rng.Intn(u.cfg.ASCount)
		if a != b {
			u.addPeering(a, b)
		}
	}
}

func (u *Underlay) addPeering(a, b int) {
	if a > b {
		a, b = b, a
	}
	if a != b {
		u.asPeers[[2]int{a, b}] = true
	}
}

// ASPeered reports whether ASes a and b have a direct peering link.
func (u *Underlay) ASPeered(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return u.asPeers[[2]int{a, b}]
}

func (u *Underlay) computeBaseDelays() {
	n := u.cfg.N
	u.baseDelay = newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			km := greatCircleKM(u.sites[i].Lat, u.sites[i].Lon, u.sites[j].Lat, u.sites[j].Lon)
			prop := km * u.cfg.PropagationFactor
			// Asymmetric routing inflation: each direction gets its own
			// lognormal-ish inflation factor, fixed for the lifetime of the
			// underlay (route changes are modeled by jitter).
			inflation := 1 + math.Abs(u.rng.NormFloat64())*0.15
			u.baseDelay[i][j] = u.cfg.AccessDelayMS + prop*inflation
		}
	}
}

func (u *Underlay) initDynamics() {
	n := u.cfg.N
	u.jitter = newMatrix(n)
	for i := range u.jitter {
		for j := range u.jitter[i] {
			u.jitter[i][j] = 1
		}
	}
	u.load = make([]float64, n)
	for i := range u.load {
		u.load[i] = math.Max(0.05, u.cfg.LoadMean+u.rng.NormFloat64()*u.cfg.LoadStddev)
	}
	u.availBW = newMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				u.availBW[i][j] = u.trueBandwidth(i, j)
			}
		}
	}
}

// trueBandwidth derives the quiescent available bandwidth between sites
// from the AS model: intra-AS pairs see the intra-AS capacity; inter-AS
// pairs are capped by the per-session peering rate, with directly peered
// ASes seeing a higher cap than those routing through intermediate ASes.
func (u *Underlay) trueBandwidth(i, j int) float64 {
	ai, aj := u.asOfSite[i], u.asOfSite[j]
	base := 0.0
	switch {
	case ai == aj:
		base = u.cfg.IntraASCapMbps
	case u.ASPeered(ai, aj):
		base = u.cfg.PeeringCapMbps * (1 + 0.5*u.rng.Float64())
	default:
		base = u.cfg.PeeringCapMbps * (0.4 + 0.4*u.rng.Float64())
	}
	access := u.cfg.AccessCapMbps * (0.5 + 0.5*u.rng.Float64())
	return math.Min(base, access)
}

// Delay returns the current true one-way delay in ms from i to j.
func (u *Underlay) Delay(i, j int) float64 {
	if i == j {
		return 0
	}
	return u.baseDelay[i][j] * u.jitter[i][j]
}

// Load returns the current true load of node i.
func (u *Underlay) Load(i int) float64 { return u.load[i] }

// AvailBW returns the current true available bandwidth in Mbps from i to j.
func (u *Underlay) AvailBW(i, j int) float64 {
	if i == j {
		return math.Inf(1)
	}
	return u.availBW[i][j]
}

// PeeringSessionCap returns the per-session rate cap that applies to a
// session leaving site i toward site j (Fig. 9/10 mechanism). Sessions
// within an AS are uncapped (access-limited only).
func (u *Underlay) PeeringSessionCap(i, j int) float64 {
	if u.asOfSite[i] == u.asOfSite[j] {
		return u.cfg.AccessCapMbps
	}
	return u.cfg.PeeringCapMbps
}

// Step advances the underlay dynamics by one tick: delay jitter is
// resampled with temporal correlation, loads follow the OU process, and
// available bandwidths wobble around their quiescent values. dt scales the
// evolution rate (1 = one wiring epoch).
func (u *Underlay) Step(dt float64) {
	n := u.cfg.N
	alpha := math.Min(1, 0.5*dt)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			target := 1 + u.rng.NormFloat64()*u.cfg.JitterFrac
			if target < 0.2 {
				target = 0.2
			}
			u.jitter[i][j] += alpha * (target - u.jitter[i][j])
			bwTarget := u.trueBandwidthQuiescent(i, j) * (1 + u.rng.NormFloat64()*u.cfg.BandwidthJitter)
			if bwTarget < 0.1 {
				bwTarget = 0.1
			}
			u.availBW[i][j] += alpha * (bwTarget - u.availBW[i][j])
		}
		u.load[i] += u.cfg.LoadReversion*dt*(u.cfg.LoadMean-u.load[i]) +
			u.cfg.LoadStddev*math.Sqrt(dt)*u.rng.NormFloat64()*0.6
		if u.load[i] < 0.05 {
			u.load[i] = 0.05
		}
	}
}

// trueBandwidthQuiescent recomputes the quiescent bandwidth without
// consuming RNG randomness for the structural part (cached by category).
func (u *Underlay) trueBandwidthQuiescent(i, j int) float64 {
	ai, aj := u.asOfSite[i], u.asOfSite[j]
	switch {
	case ai == aj:
		return math.Min(u.cfg.IntraASCapMbps, u.cfg.AccessCapMbps*0.75)
	case u.ASPeered(ai, aj):
		return u.cfg.PeeringCapMbps * 1.25
	default:
		return u.cfg.PeeringCapMbps * 0.6
	}
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i], backing = backing[:n], backing[n:]
	}
	return m
}

func clampLat(lat float64) float64 {
	if lat > 85 {
		return 85
	}
	if lat < -85 {
		return -85
	}
	return lat
}

func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// greatCircleKM returns the great-circle distance between two
// (lat, lon) points in kilometers (haversine formula).
func greatCircleKM(lat1, lon1, lat2, lon2 float64) float64 {
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKM * math.Asin(math.Sqrt(a))
}
