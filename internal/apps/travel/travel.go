// Package travel is the paper's travel-reservation case study (§7.1,
// Appendix B Figure 22): a serverless port of DeathStarBench's hotel
// reservation application, extended — as the paper extends it — with flight
// reservations and a cross-SSF transaction that books a hotel room and a
// flight seat atomically.
//
// The workflow (10 SSFs):
//
//	client → frontend → search → {geo, rate}
//	                  → recommend
//	                  → user → profile
//	                  → reserve → txn{reserve-hotel, reserve-flight}
//
// Each SSF owns its tables. In Beldi mode the reservation runs with opacity;
// in baseline mode it exhibits exactly the inconsistency (overselling /
// partial bookings) the paper's §7.2 calls out.
package travel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/beldi"
)

// Inventory sizes (§7.4: "randomly pick a hotel and a flight out of 100
// choices each following a normal distribution").
const (
	NumHotels  = 100
	NumFlights = 100
	NumUsers   = 500
	// InitialCapacity is each hotel's room count and flight's seat count.
	InitialCapacity = 1 << 30 // effectively unlimited for latency runs
)

// Function names.
const (
	FnFrontend      = "travel-frontend"
	FnSearch        = "travel-search"
	FnGeo           = "travel-geo"
	FnRate          = "travel-rate"
	FnRecommend     = "travel-recommend"
	FnUser          = "travel-user"
	FnProfile       = "travel-profile"
	FnReserve       = "travel-reserve"
	FnReserveHotel  = "travel-reserve-hotel"
	FnReserveFlight = "travel-reserve-flight"
)

// App wires the workflow into a deployment.
type App struct {
	d *beldi.Deployment
	// Capacity seeds hotels/flights; tests set small values to observe
	// sell-outs.
	Capacity int64
	// DisableTxn books the hotel and flight outside any transaction — the
	// §7.4 configuration "that uses Beldi for fault-tolerance but without
	// transactions" (16% lower median, 20% lower p99 at saturation in the
	// paper, at the cost of consistency).
	DisableTxn bool
}

// Build registers all ten SSFs on the deployment.
func Build(d *beldi.Deployment) *App {
	a := &App{d: d, Capacity: InitialCapacity}
	d.Function(FnGeo, a.geo, "geo")
	d.Function(FnRate, a.rate, "rates")
	d.Function(FnSearch, a.search)
	d.Function(FnRecommend, a.recommend, "recs")
	d.Function(FnProfile, a.profile, "profiles")
	d.Function(FnUser, a.user, "users")
	d.Function(FnReserveHotel, a.reserveHotel, "inventory")
	d.Function(FnReserveFlight, a.reserveFlight, "inventory")
	d.Function(FnReserve, a.reserve)
	d.Function(FnFrontend, a.frontend)
	return a
}

// Load populates every SSF's tables through a one-shot seeding workflow so
// the data goes through the same write path the apps use. Every table stays
// writable, and every read is logged, as in the paper's evaluation.
func (a *App) Load() error {
	for _, fn := range []string{FnGeo, FnRate, FnRecommend, FnProfile, FnUser, FnReserveHotel, FnReserveFlight} {
		if _, err := a.d.Invoke(fn, beldi.Fields(beldi.F("op", beldi.Str("seed")))); err != nil {
			return fmt.Errorf("travel: seeding %s: %w", fn, err)
		}
	}
	return nil
}

// referenceTables are the tables only the load phase writes, with the SSF
// owning each: Seed seals them.
var referenceTables = [][2]string{
	{FnGeo, "geo"}, {FnRate, "rates"}, {FnRecommend, "recs"}, {FnProfile, "profiles"}, {FnUser, "users"},
}

// Seed is Load, then seals the reference tables: their reads cost no
// read-log row, and no store op once a key was read (beldi.Deployment.Seal).
// Only the inventories stay writable.
func (a *App) Seed() error {
	if err := a.Load(); err != nil {
		return err
	}
	for _, t := range referenceTables {
		if err := a.d.Seal(t[0], t[1]); err != nil {
			return fmt.Errorf("travel: sealing %s: %w", t[1], err)
		}
	}
	return nil
}

func hotelID(i int) string  { return fmt.Sprintf("hotel-%03d", i) }
func flightID(i int) string { return fmt.Sprintf("flight-%03d", i) }
func userID(i int) string   { return fmt.Sprintf("user-%03d", i) }

// --- leaf SSFs -----------------------------------------------------------

// geo returns hotels near a location. State: per-hotel coordinates.
func (a *App) geo(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumHotels; i++ {
			pos := beldi.Fields(
				beldi.F("lat", beldi.Num(float64(i%10)*0.3)),
				beldi.F("lon", beldi.Num(float64(i/10)*0.3)),
			)
			if err := e.Write("geo", hotelID(i), pos); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	lat, lon := in.Get("lat").Num(), in.Get("lon").Num()
	// Distance check against a deterministic candidate subset (a real geo
	// index would shard; the read pattern is what matters here).
	var nearby []beldi.Value
	for i := 0; i < 8; i++ {
		id := hotelID((int(lat*10) + i*13) % NumHotels)
		pos, err := e.Read("geo", id)
		if err != nil {
			return beldi.Null, err
		}
		if pos.IsNull() {
			continue
		}
		dlat := pos.Get("lat").Num() - lat
		dlon := pos.Get("lon").Num() - lon
		dist := math.Sqrt(dlat*dlat + dlon*dlon)
		nearby = append(nearby, beldi.Fields(beldi.F("distance", beldi.Num(dist)), beldi.F("hotel", beldi.Str(id))))
	}
	return beldi.List(nearby...), nil
}

// rate returns room rates for the requested hotels.
func (a *App) rate(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumHotels; i++ {
			rate := beldi.Fields(
				beldi.F("price", beldi.Num(80+float64((i*37)%200))),
				beldi.F("stars", beldi.Num(float64(1+i%5))),
			)
			if err := e.Write("rates", hotelID(i), rate); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	var out []beldi.Value
	for _, hv := range in.Get("hotels").List() {
		r, err := e.Read("rates", hv.Get("hotel").Str())
		if err != nil {
			return beldi.Null, err
		}
		// The nearby entry (its hotel among its fields), with the rate's
		// price and stars over it when the hotel has one.
		entry := make([]beldi.Field, 0, hv.MapLen()+2)
		for k, v := range hv.Entries() {
			entry = append(entry, beldi.F(k, v))
		}
		if !r.IsNull() {
			entry = append(entry, beldi.F("price", r.Get("price")), beldi.F("stars", r.Get("stars")))
		}
		out = append(out, beldi.Fields(entry...))
	}
	return beldi.List(out...), nil
}

// search fans out to geo then rate and ranks results.
func (a *App) search(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	nearby, err := e.SyncInvoke(FnGeo, in)
	if err != nil {
		return beldi.Null, err
	}
	rated, err := e.SyncInvoke(FnRate, beldi.Fields(beldi.F("hotels", nearby)))
	if err != nil {
		return beldi.Null, err
	}
	return rated, nil
}

// recommend returns hotels ranked by the requested criterion
// (price/distance/rate), reading a per-criterion precomputed list.
func (a *App) recommend(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for _, crit := range []string{"price", "distance", "rate"} {
			var ids []beldi.Value
			for i := 0; i < 5; i++ {
				ids = append(ids, beldi.Str(hotelID((i*29+len(crit))%NumHotels)))
			}
			if err := e.Write("recs", crit, beldi.List(ids...)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	crit := in.Get("require").Str()
	if crit == "" {
		crit = "price"
	}
	return e.Read("recs", crit)
}

// profile returns hotel profiles.
func (a *App) profile(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumHotels; i++ {
			p := beldi.Fields(
				beldi.F("name", beldi.Str(fmt.Sprintf("Hotel %03d", i))),
				beldi.F("phone", beldi.Str(fmt.Sprintf("+1-555-%04d", i))),
			)
			if err := e.Write("profiles", hotelID(i), p); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	return e.Read("profiles", in.Get("hotel").Str())
}

// user validates credentials.
func (a *App) user(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	if in.Get("op").Str() == "seed" {
		for i := 0; i < NumUsers; i++ {
			cred := beldi.Fields(beldi.F("password", beldi.Str(fmt.Sprintf("pw-%03d", i))))
			if err := e.Write("users", userID(i), cred); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	cred, err := e.Read("users", in.Get("user").Str())
	if err != nil {
		return beldi.Null, err
	}
	ok := !cred.IsNull() && cred.Get("password").Str() == in.Get("password").Str()
	if ok {
		// Fetch the hotel profile as the post-login landing data.
		if _, err := e.SyncInvoke(FnProfile, beldi.Fields(beldi.F("hotel", beldi.Str(hotelID(0))))); err != nil {
			return beldi.Null, err
		}
	}
	return beldi.BoolVal(ok), nil
}

// --- reservation (the transactional subgraph) ----------------------------

// reserveInventory holds the common reserve logic for hotels and flights:
// check capacity, decrement, and append the booking — three operations that
// must be atomic with the *other* SSF's reservation.
func (a *App) reserveInventory(e *beldi.Env, table string, in beldi.Value, seedID func(int) string) (beldi.Value, error) {
	op := in.Get("op").Str()
	if op == "seed" {
		for i := 0; i < NumHotels; i++ {
			if err := e.Write("inventory", seedID(i), beldi.Int(a.Capacity)); err != nil {
				return beldi.Null, err
			}
		}
		return beldi.Str("seeded"), nil
	}
	if op == "audit" {
		// Sum remaining capacity — the §7.2 consistency probe. Read through
		// the SSF's own API so sovereignty holds even for audits.
		var total int64
		for i := 0; i < NumHotels; i++ {
			v, err := e.Read("inventory", seedID(i))
			if err != nil {
				return beldi.Null, err
			}
			total += v.Int()
		}
		return beldi.Int(total), nil
	}
	id := in.Get(table).Str()
	cap, err := e.Read("inventory", id)
	if err != nil {
		return beldi.Null, err
	}
	if cap.Int() < 1 {
		return beldi.Null, beldi.ErrTxnAborted // sold out: abort the booking
	}
	if err := e.Write("inventory", id, beldi.Int(cap.Int()-1)); err != nil {
		return beldi.Null, err
	}
	return beldi.Str("reserved:" + id), nil
}

func (a *App) reserveHotel(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	return a.reserveInventory(e, "hotel", in, hotelID)
}

func (a *App) reserveFlight(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	return a.reserveInventory(e, "flight", in, flightID)
}

// reserve books the hotel and flight inside one cross-SSF transaction —
// the paper's marquee use of workflow transactions (§6.2, Figure 22). With
// DisableTxn the same invocations run bare (fault-tolerant but not
// isolated), the §7.4 ablation configuration.
func (a *App) reserve(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	book := func() error {
		if _, err := e.SyncInvoke(FnReserveHotel, in); err != nil {
			return err
		}
		_, err := e.SyncInvoke(FnReserveFlight, in)
		return err
	}
	var err error
	if a.DisableTxn {
		err = book()
	} else {
		err = e.Transaction(book)
	}
	if errors.Is(err, beldi.ErrTxnAborted) {
		return beldi.Str("aborted"), nil
	}
	if err != nil {
		return beldi.Null, err
	}
	return beldi.Str("booked"), nil
}

// frontend routes client requests into the workflow.
func (a *App) frontend(e *beldi.Env, in beldi.Value) (beldi.Value, error) {
	switch op := in.Get("op").Str(); op {
	case "search":
		return e.SyncInvoke(FnSearch, in)
	case "recommend":
		return e.SyncInvoke(FnRecommend, in)
	case "login":
		return e.SyncInvoke(FnUser, in)
	case "reserve":
		return e.SyncInvoke(FnReserve, in)
	default:
		return beldi.Null, fmt.Errorf("travel: unknown op %q", op)
	}
}

// --- workload ------------------------------------------------------------

// Entry returns the workflow's entry function.
func (a *App) Entry() string { return FnFrontend }

// Request draws the next client request from the DeathStarBench-derived mix
// (§7.4): mostly searches and recommendations, some logins, and occasional
// reservations whose hotel/flight choices follow a clipped normal
// distribution over the 100 options.
func (a *App) Request(r *rand.Rand) beldi.Value {
	p := r.Float64()
	switch {
	case p < 0.60:
		return beldi.Fields(
			beldi.F("lat", beldi.Num(r.Float64()*3)),
			beldi.F("lon", beldi.Num(r.Float64()*3)),
			beldi.F("op", beldi.Str("search")),
		)
	case p < 0.78:
		criteria := []string{"price", "distance", "rate"}
		return beldi.Fields(
			beldi.F("op", beldi.Str("recommend")),
			beldi.F("require", beldi.Str(criteria[r.Intn(len(criteria))])),
		)
	case p < 0.93:
		u := r.Intn(NumUsers)
		return beldi.Fields(
			beldi.F("op", beldi.Str("login")),
			beldi.F("password", beldi.Str(fmt.Sprintf("pw-%03d", u))),
			beldi.F("user", beldi.Str(userID(u))),
		)
	default:
		hotel := hotelID(normalChoice(r, NumHotels)) // drawn before the flight
		return beldi.Fields(
			beldi.F("flight", beldi.Str(flightID(normalChoice(r, NumFlights)))),
			beldi.F("hotel", beldi.Str(hotel)),
			beldi.F("op", beldi.Str("reserve")),
		)
	}
}

// normalChoice picks an index from a normal distribution centred on the
// middle of [0, n), clipped to the valid range.
func normalChoice(r *rand.Rand, n int) int {
	v := int(r.NormFloat64()*float64(n)/6 + float64(n)/2)
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// AuditInventory sums the remaining capacity held by a reservation SSF
// (FnReserveHotel or FnReserveFlight) — the invariant probe for the §7.2
// consistency comparison: under Beldi, (initial - total) hotel rooms must
// equal (initial - total) flight seats exactly; under the baseline they
// drift apart.
func AuditInventory(d *beldi.Deployment, fn string) (int64, error) {
	out, err := d.Invoke(fn, beldi.Fields(beldi.F("op", beldi.Str("audit"))))
	if err != nil {
		return 0, err
	}
	return out.Int(), nil
}
