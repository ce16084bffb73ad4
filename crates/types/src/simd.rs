//! The workspace's one home for `unsafe` SIMD: every `std::arch` kernel
//! lives here, each behind a safe function that picks the AVX-512 path at
//! run time (`is_x86_feature_detected!`) and otherwise runs a scalar
//! reference with exactly the same result.
//!
//! * the hash-membership scan behind [`crate::hash::transmitters_into`];
//! * [`fill_counter_bytes`], the output of a SplitMix64 counter stream
//!   (what [`CounterRng`](crate::CounterRng)'s `fill_bytes` writes);
//! * [`polar_candidates`], the accepted Marsaglia-polar points `(u, v, s)`
//!   of a block of generator words;
//! * [`ln_into`], `f64::ln` of a slice, bit for bit.
//!
//! Every kernel is pinned to its scalar reference by the tests below, and
//! [`ln_into`] additionally by a 10^9-value release check in CI. DESIGN.md
//! §17 gives the exactness arguments.

#![allow(unsafe_code)]

use crate::hash::{splitmix64, GAMMA};

/// Whether the running CPU has the AVX-512 subsets every kernel here uses
/// (F for the lanes, DQ for 64-bit multiplies and integer↔float
/// conversions).
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Appends `ids[j]` for every `states[j]` whose `H(ID|slot)` is at most
/// the pre-shifted `limit` (see `hash::membership_limit`) and returns
/// `true`; on hosts without AVX-512DQ it returns `false` and leaves `out`
/// alone, and the caller runs its scalar loop. `l` only decides whether
/// the finalizer's last xor-shift can matter (`l = 32`).
pub(crate) fn transmitters_into(
    states: &[crate::hash::TagHashState],
    ids: &[u32],
    slot: u64,
    limit: u64,
    l: u32,
    out: &mut Vec<u32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: `scan` enables exactly `avx512f` and `avx512dq`, and
        // `avx512_available()` has just confirmed the CPU supports both.
        unsafe { avx512::scan(states, ids, slot, limit, l, out) };
        return true;
    }
    let _ = (states, ids, slot, limit, l, out);
    false
}

/// Fills `dest` from the counter stream at `state` exactly as
/// [`CounterRng`](crate::CounterRng)'s `fill_bytes` does — output `j` is
/// `splitmix64(state + j·γ)`, written little-endian; a partial tail takes
/// the first bytes of one more output — and returns the advanced state.
/// Eight outputs per step on AVX-512 hosts.
#[must_use]
pub fn fill_counter_bytes(state: u64, dest: &mut [u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    let words = if avx512_available() {
        // SAFETY: as in `transmitters_into`.
        unsafe { avx512::counter_bytes(state, dest) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let words = 0;
    let state = state.wrapping_add((words as u64).wrapping_mul(GAMMA));
    scalar_counter_bytes(state, &mut dest[8 * words..])
}

/// The reference loop of [`fill_counter_bytes`].
fn scalar_counter_bytes(mut state: u64, dest: &mut [u8]) -> u64 {
    for bytes in dest.chunks_mut(8) {
        bytes.copy_from_slice(&splitmix64(state).to_le_bytes()[..bytes.len()]);
        state = state.wrapping_add(GAMMA);
    }
    state
}

/// Marsaglia-polar candidates of a block of generator output: `bytes`
/// holds little-endian `u64` words (as `RngCore::fill_bytes` writes them),
/// and candidate `j` is `u = 2·U(w[2j]) − 1`, `v = 2·U(w[2j+1]) − 1` with
/// `U(w) = (w >> 11)·2^-53` (`rand`'s `gen::<f64>()`), and
/// `s = u·u + v·v`. The accepted candidates (`0 < s < 1`) are written to
/// the fronts of `us`, `vs` and `ss` in order, and their count returned —
/// the points a loop of `standard_normal_pair` would accept from the same
/// words, with the same bits.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 16 or an output is
/// shorter than `bytes.len() / 16`.
pub fn polar_candidates(bytes: &[u8], us: &mut [f64], vs: &mut [f64], ss: &mut [f64]) -> usize {
    assert!(
        bytes.len().is_multiple_of(16),
        "one (u, v) word pair per candidate"
    );
    let n = bytes.len() / 16;
    assert!(
        us.len() >= n && vs.len() >= n && ss.len() >= n,
        "one output slot per candidate"
    );
    #[cfg(target_arch = "x86_64")]
    let (done, accepted) = if avx512_available() {
        // SAFETY: as in `transmitters_into`; the lengths were checked
        // above, which is all the kernel's stores rely on.
        unsafe { avx512::polar(bytes, us, vs, ss) }
    } else {
        (0, 0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (done, accepted) = (0, 0);
    accepted
        + scalar_polar(
            &bytes[16 * done..],
            &mut us[accepted..],
            &mut vs[accepted..],
            &mut ss[accepted..],
        )
}

/// The reference loop of [`polar_candidates`].
fn scalar_polar(bytes: &[u8], us: &mut [f64], vs: &mut [f64], ss: &mut [f64]) -> usize {
    let unit = |b: &[u8]| {
        let w = u64::from_le_bytes(b.try_into().expect("eight bytes"));
        (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    };
    let mut accepted = 0;
    for pair in bytes.chunks_exact(16) {
        let u = unit(&pair[..8]) * 2.0 - 1.0;
        let v = unit(&pair[8..]) * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            us[accepted] = u;
            vs[accepted] = v;
            ss[accepted] = s;
            accepted += 1;
        }
    }
    accepted
}

/// `out[i] = xs[i].ln()` for every `i`, bit for bit.
///
/// On AVX-512 hosts, eight lanes evaluate `ln` in double-double and keep
/// a lane only when its rounded result is provably the double the
/// platform `log` returns (DESIGN.md §17); every other lane — about 8 %,
/// plus every input outside `[2^-1022, 1)` — calls `f64::ln`.
///
/// # Panics
///
/// Panics if `out` is shorter than `xs`.
pub fn ln_into(xs: &[f64], out: &mut [f64]) {
    assert!(out.len() >= xs.len(), "one output per input");
    #[cfg(target_arch = "x86_64")]
    let done = if avx512_available() {
        // SAFETY: as in `transmitters_into`; lengths checked above.
        unsafe { avx512::ln(xs, out) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (o, x) in out[done..].iter_mut().zip(&xs[done..]) {
        *o = x.ln();
    }
}

/// The bit pattern of the reduced argument's lower end, `0x1.6p-1`: an
/// input `s = 2^k·z` is split so that `z ∈ [0x1.6p-1, 0x1.6p0)`.
const LN_OFF: u64 = 0x3FE6_0000_0000_0000;
/// `ln 2` as a double-double whose high half has 42 significant bits, so
/// `k·LN2_HI` is exact for every exponent `|k| < 2^11`.
const LN2_HI: f64 = 0.693_147_180_559_890_3;
const LN2_LO: f64 = 5.497_923_018_708_371e-14;
/// A kept lane's rounding residual bound, in ulps of its result: with a
/// relative error of at most 2^-60 (≤ 2^-7 ulp) the exact value then lies
/// within 0.47 ulp of the result.
const LN_KEEP_ULPS: f64 = 0.462;

// The table: `python3 crates/types/tools/ln_table.py` prints it.

/// `invc` of each interval: the double nearest 1/center.
static LN_INVC: [f64; 128] = [
    1.4504249291784703,
    1.4422535211267606,
    1.4341736694677871,
    1.426183844011142,
    1.4182825484764543,
    1.4104683195592287,
    1.4027397260273973,
    1.3950953678474114,
    1.3875338753387534,
    1.3800539083557952,
    1.3726541554959786,
    1.3653333333333333,
    1.3580901856763925,
    1.3509234828496042,
    1.3438320209973753,
    1.3368146214099217,
    1.3298701298701299,
    1.322997416020672,
    1.3161953727506426,
    1.3094629156010231,
    1.3027989821882953,
    1.2962025316455696,
    1.2896725440806045,
    1.2832080200501252,
    1.2768079800498753,
    1.2704714640198511,
    1.2641975308641975,
    1.257985257985258,
    1.2518337408312958,
    1.245742092457421,
    1.2397094430992737,
    1.2337349397590363,
    1.2278177458033572,
    1.2219570405727924,
    1.2161520190023754,
    1.210401891252955,
    1.204705882352941,
    1.199063231850117,
    1.1934731934731935,
    1.1879350348027842,
    1.1824480369515011,
    1.1770114942528735,
    1.17162471395881,
    1.1662870159453302,
    1.1609977324263039,
    1.1557562076749435,
    1.150561797752809,
    1.145413870246085,
    1.1403118040089086,
    1.1352549889135255,
    1.130242825607064,
    1.1252747252747253,
    1.1203501094091903,
    1.1154684095860568,
    1.1106290672451193,
    1.1058315334773219,
    1.1010752688172043,
    1.0963597430406853,
    1.091684434968017,
    1.0870488322717622,
    1.0824524312896406,
    1.0778947368421052,
    1.0733752620545074,
    1.068893528183716,
    1.0644490644490645,
    1.060041407867495,
    1.0556701030927835,
    1.051334702258727,
    1.047034764826176,
    1.0427698574338085,
    1.0385395537525355,
    1.0343434343434343,
    1.0301810865191148,
    1.0260521042084167,
    1.0219560878243512,
    1.0178926441351888,
    1.0138613861386139,
    1.009861932938856,
    1.005893909626719,
    1.0,
    0.9961089494163424,
    0.9884169884169884,
    0.9808429118773946,
    0.973384030418251,
    0.9660377358490566,
    0.9588014981273408,
    0.9516728624535316,
    0.9446494464944649,
    0.9377289377289377,
    0.9309090909090909,
    0.924187725631769,
    0.9175627240143369,
    0.9110320284697508,
    0.9045936395759717,
    0.8982456140350877,
    0.89198606271777,
    0.8858131487889274,
    0.8797250859106529,
    0.8737201365187713,
    0.8677966101694915,
    0.8619528619528619,
    0.8561872909698997,
    0.8504983388704319,
    0.8448844884488449,
    0.839344262295082,
    0.8338762214983714,
    0.8284789644012945,
    0.8231511254019293,
    0.8178913738019169,
    0.8126984126984127,
    0.807570977917981,
    0.8025078369905956,
    0.7975077881619937,
    0.7925696594427245,
    0.7876923076923077,
    0.7828746177370031,
    0.7781155015197568,
    0.7734138972809668,
    0.7687687687687688,
    0.764179104477612,
    0.7596439169139466,
    0.7551622418879056,
    0.750733137829912,
    0.7463556851311953,
    0.7420289855072464,
    0.7377521613832853,
    0.7335243553008596,
    0.7293447293447294,
];
/// High half of -ln(invc).
static LN_LOGC_HI: [f64; 128] = [
    -0.37185656810621104,
    -0.36620683556409206,
    -0.36058884325986873,
    -0.3550022365512289,
    -0.3494466667066269,
    -0.343921790774657,
    -0.3384272714570163,
    -0.3329627769849375,
    -0.3275279809989806,
    -0.3221225624320727,
    -0.31674620539569226,
    -0.31139859906909695,
    -0.306079437591497,
    -0.3007884199570814,
    -0.2955252499128068,
    -0.2902896358588618,
    -0.28508129075172356,
    -0.279899932009726,
    -0.2747452814210614,
    -0.26961706505414207,
    -0.2645150131702466,
    -0.2594388601383859,
    -0.25438834435231733,
    -0.24936320814964427,
    -0.24436319773293858,
    -0.23938806309282482,
    -0.23443755793296864,
    -0.22951143959691278,
    -0.22460946899670603,
    -0.2197314105432732,
    -0.21487703207847508,
    -0.21004610480880959,
    -0.20523840324070627,
    -0.2004537051173701,
    -0.19569179135712642,
    -0.1909524459932298,
    -0.18623545611509087,
    -0.18154061181088324,
    -0.1768677061114908,
    -0.17221653493575995,
    -0.16758689703701793,
    -0.16297859395082367,
    -0.15839142994391764,
    -0.15382521196433638,
    -0.14927974959266183,
    -0.14475485499437207,
    -0.14025034287326765,
    -0.13576603042593893,
    -0.13130173729725345,
    -0.12685728553682943,
    -0.12243249955647377,
    -0.11802720608855737,
    -0.11364123414530306,
    -0.10927441497896273,
    -0.10492658204285929,
    -0.10059757095327378,
    -0.09628721945215148,
    -0.09199536737061052,
    -0.0877218565932284,
    -0.08346653102309001,
    -0.07922923654757486,
    -0.07500982100486656,
    -0.07080813415116662,
    -0.06662402762859244,
    -0.06245735493374666,
    -0.05830797138693517,
    -0.054175734102024614,
    -0.05006050195691803,
    -0.04596213556463585,
    -0.04188049724498711,
    -0.037815450996817664,
    -0.033766862470817484,
    -0.029734598942879144,
    -0.025718529287989036,
    -0.021718523954642903,
    -0.017734454939768475,
    -0.01376619576414797,
    -0.00981362144832467,
    -0.005876608488984971,
    0.0,
    0.003898640415657309,
    0.01165061721997525,
    0.019342962843130987,
    0.026976587698202083,
    0.03455238150665973,
    0.042071213920687044,
    0.049533935122276676,
    0.05694137640013845,
    0.06429435070539725,
    0.07159365318700882,
    0.078840061707776,
    0.08603433734180316,
    0.09317722485418334,
    0.10026945316367517,
    0.10731173578908804,
    0.11430477128005863,
    0.12124924363286965,
    0.12814582269193006,
    0.13499516453750482,
    0.1417979118602574,
    0.1485546943231372,
    0.15526612891112396,
    0.16193282026931324,
    0.16855536102980664,
    0.17513433212784915,
    0.18167030310763463,
    0.18816383241818294,
    0.19461546769967167,
    0.2010257460605908,
    0.2073951943460706,
    0.21372432939771818,
    0.22001365830528213,
    0.2262636786504534,
    0.232474878743094,
    0.238647737850175,
    0.24478272641769092,
    0.25088030628580943,
    0.2569409308975004,
    0.26296504550088134,
    0.26895308734550394,
    0.2749054858727992,
    0.2808226629008878,
    0.2867050328039543,
    0.29255300268637746,
    0.2983669725517973,
    0.3041473354672968,
    0.3098944777228647,
    0.3156087789863033,
];
/// Low half of -ln(invc).
static LN_LOGC_LO: [f64; 128] = [
    -2.622583226187616e-17,
    1.6997753189893177e-17,
    1.3628681005660675e-17,
    7.669331134531194e-18,
    1.8107371105801082e-17,
    -2.2788091183865077e-17,
    -1.2094178823249254e-18,
    3.621882889634147e-18,
    1.9558666677321343e-17,
    1.2831345358833819e-17,
    -2.869256048366567e-18,
    1.2368692048948334e-17,
    2.360426403855648e-18,
    -1.3697066909099587e-17,
    1.3550562967628434e-17,
    -2.4548728027140135e-18,
    -6.351399668130711e-19,
    -4.834062762833095e-18,
    -3.665410036157285e-18,
    -2.686159658510421e-17,
    -8.166602421887088e-18,
    -2.7423845801639452e-17,
    -1.4339973939868338e-17,
    -6.740267061480097e-19,
    1.4064713105722283e-18,
    1.3531467828463102e-17,
    1.3462500573049868e-17,
    9.130963928926302e-18,
    -4.873968263851468e-18,
    -1.2172989873689749e-17,
    6.3936369496245475e-18,
    1.1401416710694254e-17,
    6.517045487028861e-18,
    -4.024887784647953e-18,
    4.194035836168105e-18,
    1.153257055843512e-17,
    7.239565374145492e-18,
    1.0031622970826496e-17,
    -1.0142708275797129e-17,
    -9.173041762380018e-18,
    6.957799504672856e-18,
    -2.968291512446388e-18,
    2.637463471501479e-18,
    -9.48961192244976e-18,
    7.432789359543407e-18,
    1.0071735412643571e-17,
    -7.174632062898151e-18,
    2.0963004096866695e-18,
    -1.920011794471695e-18,
    -7.640536611850881e-18,
    6.334183374683508e-18,
    -2.7349066045479833e-18,
    5.870375286097418e-18,
    3.5628843393108066e-18,
    -6.3947256124788025e-18,
    4.804056155300937e-18,
    4.299622091213251e-18,
    -6.2313226384620115e-18,
    -3.1061998497496937e-18,
    -5.556862433791088e-18,
    -4.277690436376405e-18,
    2.9115176492034424e-18,
    -5.9080686874000904e-18,
    -5.5751094781716345e-18,
    3.1280694702435752e-18,
    2.070662157308864e-18,
    3.1245030174465517e-18,
    -9.174024604303651e-20,
    -2.5706225148512324e-19,
    -2.283650074850234e-18,
    1.4251832364060072e-19,
    1.442127698674705e-18,
    1.3359261790310464e-18,
    -8.505083404803465e-19,
    9.51817561415885e-19,
    -5.192616246238567e-19,
    -6.51170039303772e-19,
    -5.330914506885923e-19,
    3.8610986774758214e-19,
    0.0,
    1.2541659038304982e-19,
    6.311738528333134e-19,
    -6.612867620320467e-19,
    -1.357561021795712e-18,
    -2.5264681161162764e-18,
    -9.713775354759503e-20,
    1.664443731663614e-18,
    1.78594464879227e-18,
    3.475225966814173e-18,
    4.869195800165027e-19,
    -4.568340554252506e-18,
    -3.36803314523905e-18,
    2.8334317358750366e-18,
    -2.822998867357873e-18,
    -4.322456718254657e-18,
    5.977397630760421e-18,
    2.6827199737801766e-18,
    -4.109471350011548e-18,
    1.369660501724148e-18,
    -1.2867304346273362e-17,
    -1.1863378834702217e-17,
    1.1990886572394084e-17,
    -1.3644842250457798e-17,
    1.0763132959988806e-17,
    -2.724105290158387e-18,
    4.954929708083542e-18,
    3.741953239550891e-18,
    1.9890959474466474e-18,
    -4.5707808879306246e-18,
    -5.756619770435678e-18,
    -1.2735141289933245e-17,
    1.1961281714072477e-18,
    8.337560297889984e-18,
    6.160927890733764e-18,
    -1.6128470577184094e-18,
    -7.47089098380464e-18,
    -8.553911523038828e-18,
    7.175242481751694e-18,
    1.5718867588147142e-17,
    1.0592604897911732e-17,
    -1.402747850115579e-17,
    -1.0950013154836128e-17,
    -2.8116608187823606e-18,
    -5.2811179490291116e-18,
    -1.3287151317641232e-17,
    7.010822479304778e-18,
    4.5997359765827076e-18,
    -1.0493698520483516e-17,
];

/// The eight-lane kernels. Each `#[target_feature]` function is `unsafe`
/// to call only because the CPU must support the features it enables;
/// the safe wrappers above check that first. Memory is touched only
/// inside the bounds the wrappers have checked.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{LN2_HI, LN2_LO, LN_INVC, LN_KEEP_ULPS, LN_LOGC_HI, LN_LOGC_LO, LN_OFF};
    use crate::hash::{TagHashState, GAMMA, MIX1, MIX2};
    use std::arch::x86_64::*;

    /// The membership scan over the whole slice: SplitMix64 of
    /// `prefix ^ slot` in eight lanes, compared unshifted with the
    /// pre-shifted `limit`, four vectors (32 tags) per step and the last
    /// `len % 32` tags through masked loads. Each step's four masks make
    /// one `u32` walked lowest bit first, so transmitters come out in index
    /// order as in the scalar loop. Lane arithmetic wraps like
    /// `wrapping_add`/`wrapping_mul`, so every lane equals
    /// [`TagHashState::slot_hash`] up to the last xor-shift, which only
    /// `l = 32` needs (DESIGN.md §17).
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F and AVX-512DQ. The
    /// body reads `states` only through the loads its comments bound, and
    /// `ids` through slices.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn scan(
        states: &[TagHashState],
        ids: &[u32],
        slot: u64,
        limit: u64,
        l: u32,
        out: &mut Vec<u32>,
    ) {
        if l == 32 {
            scan_with::<true>(states, ids, slot, limit, out);
        } else {
            scan_with::<false>(states, ids, slot, limit, out);
        }
    }

    /// [`scan`] with the finalizer's last xor-shift (`x ^ (x >> 31)`)
    /// applied or not.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn scan_with<const LAST_XOR_SHIFT: bool>(
        states: &[TagHashState],
        ids: &[u32],
        slot: u64,
        limit: u64,
        out: &mut Vec<u32>,
    ) {
        let (slot, limit) = (
            _mm512_set1_epi64(slot as i64),
            _mm512_set1_epi64(limit as i64),
        );
        // Lanes of `k` whose hash is within the limit; the others read 0.
        let test = |k: __mmask8, prefix: __m512i| {
            let mut x = multiply_rounds(_mm512_xor_si512(prefix, slot));
            if LAST_XOR_SHIFT {
                x = _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x));
            }
            u32::from(_mm512_mask_cmple_epu64_mask(k, x, limit))
        };
        let mut push = |mut mask: u32, ids: &[u32]| {
            while mask != 0 {
                out.push(ids[mask.trailing_zeros() as usize]);
                mask &= mask - 1;
            }
        };
        // `TagHashState` is `repr(transparent)` over `u64`.
        let prefixes = states.as_ptr().cast::<i64>();
        let len = states.len();
        let mut i = 0;
        while i + 32 <= len {
            // SAFETY: the four loads read `states[i..i + 32]`, in bounds.
            let v = |j: usize| unsafe { _mm512_loadu_si512(prefixes.add(i + j).cast()) };
            let mask = test(!0, v(0))
                | test(!0, v(8)) << 8
                | test(!0, v(16)) << 16
                | test(!0, v(24)) << 24;
            push(mask, &ids[i..i + 32]);
            i += 32;
        }
        let mut mask = 0;
        for j in (0..len - i).step_by(8) {
            let k = u8::MAX >> 8usize.saturating_sub(len - i - j);
            // SAFETY: lane `t` of `k` is set only for `i + j + t < len`,
            // and masked-off lanes are neither read nor faulted on.
            let v = unsafe { _mm512_maskz_loadu_epi64(k, prefixes.add(i + j)) };
            mask |= test(k, v) << j;
        }
        push(mask, &ids[i..]);
    }

    /// The SplitMix64 finalizer of `x + γ` in eight lanes.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splitmix(x: __m512i) -> __m512i {
        let x = multiply_rounds(x);
        _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x))
    }

    /// [`splitmix`] without its last xor-shift: the γ step and both
    /// xor-shift-multiply rounds.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn multiply_rounds(x: __m512i) -> __m512i {
        let x = _mm512_add_epi64(x, _mm512_set1_epi64(GAMMA as i64));
        let x = _mm512_mullo_epi64(
            _mm512_xor_si512(x, _mm512_srli_epi64::<30>(x)),
            _mm512_set1_epi64(MIX1 as i64),
        );
        _mm512_mullo_epi64(
            _mm512_xor_si512(x, _mm512_srli_epi64::<27>(x)),
            _mm512_set1_epi64(MIX2 as i64),
        )
    }

    /// Writes counter-stream outputs, little-endian, into the longest
    /// multiple-of-64-byte prefix of `dest` and returns how many outputs
    /// it wrote.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn counter_bytes(state: u64, dest: &mut [u8]) -> usize {
        let step = _mm512_set1_epi64(GAMMA.wrapping_mul(8) as i64);
        let lane = |j: u64| state.wrapping_add(GAMMA.wrapping_mul(j)) as i64;
        let mut x = _mm512_set_epi64(
            lane(7),
            lane(6),
            lane(5),
            lane(4),
            lane(3),
            lane(2),
            lane(1),
            lane(0),
        );
        let len = dest.len();
        let mut chunks = dest.chunks_exact_mut(64);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is 64 writable bytes; the store is unaligned
            // and x86 is little-endian, as `to_le_bytes` writes.
            unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), splitmix(x)) };
            x = _mm512_add_epi64(x, step);
        }
        (len - chunks.into_remainder().len()) / 8
    }

    /// Polar candidates of the longest multiple-of-eight prefix of the
    /// candidates in `bytes`; returns `(candidates scanned, accepted)`.
    /// Lane `j` performs the scalar reference's operations on candidate
    /// `j` (exact integer→double conversion, then the same multiplies and
    /// subtractions, none fused), and the accepted lanes are
    /// compress-stored in lane order.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F and AVX-512DQ, and
    /// that `us`, `vs` and `ss` each hold at least `bytes.len() / 16`
    /// elements.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn polar(
        bytes: &[u8],
        us: &mut [f64],
        vs: &mut [f64],
        ss: &mut [f64],
    ) -> (usize, usize) {
        let even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
        let odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
        let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let two = _mm512_set1_pd(2.0);
        let one = _mm512_set1_pd(1.0);
        let zero = _mm512_setzero_pd();
        let unit = |w: __m512i| {
            let u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(w)), scale);
            _mm512_sub_pd(_mm512_mul_pd(u, two), one)
        };
        let mut accepted = 0usize;
        let mut chunks = bytes.chunks_exact(128);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is 128 readable bytes, sixteen little-endian
            // words.
            let (lo, hi) = unsafe {
                (
                    _mm512_loadu_si512(chunk.as_ptr().cast()),
                    _mm512_loadu_si512(chunk.as_ptr().add(64).cast()),
                )
            };
            let u = unit(_mm512_permutex2var_epi64(lo, even, hi));
            let v = unit(_mm512_permutex2var_epi64(lo, odd, hi));
            let s = _mm512_add_pd(_mm512_mul_pd(u, u), _mm512_mul_pd(v, v));
            let keep = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(s, zero)
                & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s, one);
            // SAFETY: at most `accepted + 8 ≤ candidates so far ≤
            // bytes.len() / 16` elements are written, which the caller
            // guarantees each output holds.
            unsafe {
                _mm512_mask_compressstoreu_pd(us.as_mut_ptr().add(accepted).cast(), keep, u);
                _mm512_mask_compressstoreu_pd(vs.as_mut_ptr().add(accepted).cast(), keep, v);
                _mm512_mask_compressstoreu_pd(ss.as_mut_ptr().add(accepted).cast(), keep, s);
            }
            accepted += keep.count_ones() as usize;
        }
        ((bytes.len() - chunks.remainder().len()) / 16, accepted)
    }

    /// `ln` of the longest multiple-of-eight prefix of `xs` into `out`;
    /// returns its length. Lanes the double-double evaluation cannot
    /// vouch for are finished with `f64::ln`.
    ///
    /// For `s = 2^k·z`, `z ∈ [0x1.6p-1, 0x1.6p0)` and the table interval
    /// `i` of `z`: `ln s = k·ln 2 + logc_i + ln(1 + r)` with
    /// `r = z·invc_i − 1` (an exact double-double by FMA), `|r| < 2^-7.99`,
    /// and `ln(1 + r)` from its Taylor series to `r^9`. DESIGN.md §17
    /// bounds the relative error of the double-double `d + e` by 2^-60.
    ///
    /// # Safety
    ///
    /// Callers must ensure the CPU supports AVX-512F and AVX-512DQ, and
    /// that `out` holds at least `xs.len()` elements.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn ln(xs: &[f64], out: &mut [f64]) -> usize {
        let mut chunks = xs.chunks_exact(8);
        let mut at = 0;
        for chunk in &mut chunks {
            // SAFETY: `chunk` is eight readable `f64`s.
            let s = unsafe { _mm512_loadu_pd(chunk.as_ptr()) };
            let (d, mut fallback) = ln8(s);
            // SAFETY: `at + 8 ≤ xs.len() ≤ out.len()`.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr().add(at), d) };
            while fallback != 0 {
                let j = fallback.trailing_zeros() as usize;
                out[at + j] = chunk[j].ln();
                fallback &= fallback - 1;
            }
            at += 8;
        }
        at
    }

    /// One eight-lane `ln`: the rounded results and the mask of lanes to
    /// recompute with `f64::ln`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn ln8(s: __m512d) -> (__m512d, u8) {
        let splat = |x: f64| _mm512_set1_pd(x);
        let ix = _mm512_castpd_si512(s);
        // Inputs in [2^-1022, 1): normal, positive, below one.
        let in_domain = _mm512_cmpge_epu64_mask(ix, _mm512_set1_epi64(0x0010_0000_0000_0000))
            & _mm512_cmplt_epu64_mask(ix, _mm512_set1_epi64(0x3FF0_0000_0000_0000));
        let tmp = _mm512_sub_epi64(ix, _mm512_set1_epi64(LN_OFF as i64));
        let i = _mm512_and_si512(_mm512_srli_epi64::<45>(tmp), _mm512_set1_epi64(127));
        let k = _mm512_cvtepi64_pd(_mm512_srai_epi64::<52>(tmp));
        let z = _mm512_castsi512_pd(_mm512_sub_epi64(
            ix,
            _mm512_and_si512(tmp, _mm512_set1_epi64((0xFFF_u64 << 52) as i64)),
        ));
        // SAFETY: every index is masked to 0..128, the tables' length.
        let (invc, logc_hi, logc_lo) = unsafe {
            (
                _mm512_i64gather_pd::<8>(i, LN_INVC.as_ptr()),
                _mm512_i64gather_pd::<8>(i, LN_LOGC_HI.as_ptr()),
                _mm512_i64gather_pd::<8>(i, LN_LOGC_LO.as_ptr()),
            )
        };

        // r = z·invc − 1 as rh + rl, exactly: the product's rounding error
        // by FMA, then `p − 1` (Sterbenz) and a two-sum.
        let p = _mm512_mul_pd(z, invc);
        let pe = _mm512_fmsub_pd(z, invc, p);
        let (rh, rl) = two_sum(_mm512_sub_pd(p, splat(1.0)), pe);

        // ln(1 + r) = r − r²/2 + r³·(1/3 − r/4 + … + r⁶/9): rh − rh²/2 as
        // a double-double, everything smaller in one double.
        let sq = _mm512_mul_pd(rh, rh);
        let sq_lo = _mm512_fmsub_pd(rh, rh, sq);
        let half = splat(0.5);
        let h = _mm512_mul_pd(sq, half);
        let a_hi = _mm512_sub_pd(rh, h);
        let a_err = _mm512_sub_pd(_mm512_sub_pd(rh, a_hi), h);
        let mut poly = splat(1.0 / 9.0);
        for c in [
            -1.0 / 8.0,
            1.0 / 7.0,
            -1.0 / 6.0,
            1.0 / 5.0,
            -1.0 / 4.0,
            1.0 / 3.0,
        ] {
            poly = _mm512_fmadd_pd(poly, rh, splat(c));
        }
        let small = _mm512_sub_pd(
            _mm512_sub_pd(rl, _mm512_mul_pd(sq_lo, half)),
            _mm512_mul_pd(rh, rl),
        );
        let small = _mm512_fmadd_pd(_mm512_mul_pd(sq, rh), poly, small);
        let a_lo = _mm512_add_pd(a_err, small);

        // k·ln 2 + logc (k·LN2_HI is exact), then + ln(1 + r).
        let (t_hi, t_err) = two_sum(_mm512_mul_pd(k, splat(LN2_HI)), logc_hi);
        let t_lo = _mm512_add_pd(t_err, _mm512_fmadd_pd(k, splat(LN2_LO), logc_lo));
        let (y_hi, y_err) = two_sum(t_hi, a_hi);
        let y_lo = _mm512_add_pd(y_err, _mm512_add_pd(t_lo, a_lo));
        // d = RN(y_hi + y_lo) and e = y_hi + y_lo − d exactly.
        let d = _mm512_add_pd(y_hi, y_lo);
        let e = _mm512_sub_pd(y_lo, _mm512_sub_pd(d, y_hi));

        // Keep a lane when |e| ≤ 0.462·ulp(d) and d is not a power of two.
        let dbits = _mm512_castpd_si512(d);
        let exp = _mm512_and_si512(dbits, _mm512_set1_epi64(0x7FF0_0000_0000_0000));
        let ulp = _mm512_castsi512_pd(_mm512_sub_epi64(exp, _mm512_set1_epi64(52 << 52)));
        let abs_e = _mm512_castsi512_pd(_mm512_and_si512(
            _mm512_castpd_si512(e),
            _mm512_set1_epi64(i64::MAX),
        ));
        let close =
            _mm512_cmp_pd_mask::<_CMP_LE_OQ>(abs_e, _mm512_mul_pd(ulp, splat(LN_KEEP_ULPS)));
        let mantissa = _mm512_and_si512(dbits, _mm512_set1_epi64(0x000F_FFFF_FFFF_FFFF));
        let not_pow2 = _mm512_test_epi64_mask(mantissa, mantissa);
        (d, !(in_domain & close & not_pow2))
    }

    /// Knuth's two-sum: `a + b = s + err` exactly, for any order of
    /// magnitudes.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn two_sum(a: __m512d, b: __m512d) -> (__m512d, __m512d) {
        let s = _mm512_add_pd(a, b);
        let bb = _mm512_sub_pd(s, a);
        let err = _mm512_add_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)), _mm512_sub_pd(b, bb));
        (s, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterRng;
    use rand::RngCore;

    #[test]
    fn counter_bytes_match_next_u64() {
        let mut lengths: Vec<usize> = (0..=17).collect();
        lengths.extend([63, 64, 65, 511, 512, 513, 6_152, 40_000]);
        for seed in [0u64, 1, u64::MAX, 0xDEAD_BEEF, splitmix64(7)] {
            for &len in &lengths {
                let mut reference = CounterRng::new(seed);
                let expect: Vec<u8> = (0..len.div_ceil(8))
                    .flat_map(|_| reference.next_u64().to_le_bytes())
                    .take(len)
                    .collect();
                let mut bytes = vec![0u8; len];
                let end = fill_counter_bytes(seed, &mut bytes);
                assert_eq!(
                    bytes,
                    expect,
                    "{} seed {seed} len {len}",
                    crate::hash::membership_kernel()
                );
                assert_eq!(splitmix64(end), reference.next_u64(), "end, len {len}");
                let mut scalar = vec![0u8; len];
                assert_eq!(scalar_counter_bytes(seed, &mut scalar), end);
                assert_eq!(scalar, expect);
                // The generator itself, through `fill_bytes`.
                let mut rng = CounterRng::new(seed);
                let mut via_rng = vec![0u8; len];
                rng.fill_bytes(&mut via_rng);
                assert_eq!(via_rng, expect);
                assert_eq!(rng.next_u64(), splitmix64(end));
            }
        }
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Runs both candidate paths over `words` and checks them against
    /// each other, then returns the accepted count.
    fn check_polar(words: &[u64]) -> usize {
        let words = &le_bytes(words);
        let n = words.len() / 16;
        let mut got = (vec![9.0; n], vec![9.0; n], vec![9.0; n]);
        let mut want = got.clone();
        let a = polar_candidates(words, &mut got.0, &mut got.1, &mut got.2);
        let b = scalar_polar(words, &mut want.0, &mut want.1, &mut want.2);
        assert_eq!(
            a,
            b,
            "{} accepted count, n {n}",
            crate::hash::membership_kernel()
        );
        for (x, y) in [(&got.0, &want.0), (&got.1, &want.1), (&got.2, &want.2)] {
            let bits = |v: &[f64]| v[..a].iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y), "n {n}");
        }
        a
    }

    #[test]
    fn polar_candidates_match_the_scalar_loop() {
        let mut lengths: Vec<usize> = (0..=17).collect();
        lengths.extend([769, 5_000]);
        let mut accepted = 0usize;
        let mut drawn = 0usize;
        for stream in 0..2_000u64 {
            for &n in &lengths {
                if n > 17 && stream % 20 != 0 {
                    continue;
                }
                let mut rng = CounterRng::new(splitmix64(stream));
                let words: Vec<u64> = (0..2 * n).map(|_| rng.next_u64()).collect();
                accepted += check_polar(&words);
                drawn += n;
            }
        }
        // π/4 of the candidates land in the unit disk.
        let rate = accepted as f64 / drawn as f64;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "{rate}");
        // Edge words: u = v = 0 (s = 0, rejected), u = -1 (s = 1,
        // rejected), the smallest nonzero |u| and the largest words.
        let mid = 1u64 << 63;
        let edges = [0, mid, mid + (1 << 11), mid - (1 << 11), u64::MAX, 1 << 11];
        let mut words = Vec::new();
        for &a in &edges {
            for &b in &edges {
                words.extend([a, b]);
            }
        }
        words.truncate(words.len() / 16 * 16);
        assert!(check_polar(&words) > 0);
    }

    /// The inputs the `ln` check runs over, deterministic in `seed`:
    /// `s` as the polar candidates draw it, and values near 1, near
    /// powers of two and at the smallest `s` a candidate can produce.
    fn ln_inputs(seed: u64, n: usize) -> Vec<f64> {
        let mut words = vec![0u8; 16 * n];
        let _ = fill_counter_bytes(seed, &mut words);
        let mut out = vec![0.0; n];
        let mut us = vec![0.0; n];
        let mut vs = vec![0.0; n];
        let accepted = polar_candidates(&words, &mut us, &mut vs, &mut out);
        let mut rng = CounterRng::new(!seed);
        for (j, x) in out[accepted..].iter_mut().enumerate() {
            let w = rng.next_u64();
            let ulps = (w >> 44) as i64 - (1 << 19);
            *x = match j % 4 {
                // Just below 1.
                0 => f64::from_bits(1f64.to_bits() - 1 - (w >> 40)),
                // Either side of 2^-e, e in 1..=104.
                1 => f64::from_bits(
                    (2f64.powi(-((w % 104) as i32 + 1)).to_bits() as i64 + ulps) as u64,
                ),
                // Across the whole candidate range [2^-104, 1).
                2 => 2f64.powi(-((w % 104) as i32)) * (0.5 + (w >> 12) as f64 * 2f64.powi(-53)),
                // The smallest candidate s and its neighbours.
                _ => f64::from_bits((2f64.powi(-104).to_bits() as i64 + (ulps >> 10)) as u64),
            };
        }
        out
    }

    fn check_ln(xs: &[f64]) {
        let mut got = vec![0.0; xs.len()];
        ln_into(xs, &mut got);
        for (x, y) in xs.iter().zip(&got) {
            assert_eq!(
                y.to_bits(),
                x.ln().to_bits(),
                "{} ln({x:e}) = {y:e}, f64::ln gives {:e}",
                crate::hash::membership_kernel(),
                x.ln()
            );
        }
    }

    #[test]
    fn ln_matches_f64_ln_on_a_million_noise_domain_values() {
        for block in 0..125u64 {
            check_ln(&ln_inputs(block, 8_000));
        }
    }

    /// The release-mode acceptance check: 10^9 values (run by CI with
    /// `cargo test --release -p rfid-types -- --ignored`).
    #[test]
    #[ignore = "10^9 values; run in release"]
    fn ln_matches_f64_ln_on_a_billion_noise_domain_values() {
        let blocks = 1_000_000_000 / 8_000;
        let next = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let block = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if block >= blocks {
                        break;
                    }
                    check_ln(&ln_inputs(1_000 + block, 8_000));
                });
            }
        });
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn ln_kernel_keeps_about_92_percent_of_noise_domain_lanes() {
        if !avx512_available() {
            return;
        }
        let xs = ln_inputs(7, 80_000);
        let mut fallback = 0u32;
        for chunk in xs.chunks_exact(8) {
            // SAFETY: AVX-512F/DQ were detected above; `chunk` holds
            // eight `f64`s.
            let mask = unsafe { avx512::ln8(std::arch::x86_64::_mm512_loadu_pd(chunk.as_ptr())).1 };
            fallback += mask.count_ones();
        }
        let rate = f64::from(fallback) / xs.len() as f64;
        assert!((0.04..0.10).contains(&rate), "fallback rate {rate}");
    }

    #[test]
    fn ln_falls_back_outside_its_domain() {
        let specials = [
            0.0,
            -0.0,
            -1.0,
            1.0,
            2.0,
            1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.5,
            0.25,
            0.6875,
            1.0 - f64::EPSILON / 2.0,
        ];
        for shift in 0..8 {
            let mut xs = specials.to_vec();
            xs.rotate_left(shift);
            let mut got = vec![0.0; xs.len()];
            ln_into(&xs, &mut got);
            for (x, y) in xs.iter().zip(&got) {
                let want = x.ln();
                assert!(
                    y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                    "ln({x:e}) = {y:e}, want {want:e}"
                );
            }
        }
    }

    #[test]
    fn ln_table_is_minus_ln_of_invc() {
        for i in 0..128 {
            let logc = -LN_INVC[i].ln();
            assert!((LN_LOGC_HI[i] - logc).abs() <= 2.0 * f64::EPSILON * logc.abs().max(1e-300));
            assert!(LN_LOGC_LO[i].abs() <= f64::EPSILON * LN_LOGC_HI[i].abs());
        }
        assert_eq!(LN_INVC[79], 1.0);
        assert_eq!(LN_LOGC_HI[79], 0.0);
        assert_eq!((LN2_HI.to_bits() & 0x7FF), 0, "42-bit high half");
        assert!((LN2_HI + LN2_LO - std::f64::consts::LN_2).abs() < 1e-16);
    }
}
