//! The three workloads: lists generated from `--seed` alone and *dealt
//! from decks, not drawn* — every size comes from a deck that is
//! reshuffled only when exhausted, so any stretch of a list holds the same
//! amount of work whatever the seed. The driver compares runs made with
//! different seeds; a drawn list would put its sampling noise into every
//! metric.

use crate::config::{bench_llama, MOE_TABLE_ROWS};

/// FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over the little-endian bytes of a sequence of words.
pub fn fnv64_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

/// xorshift64*, seeded through splitmix64 so small seeds diverge at once.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A deck of sizes: deals every card once before any card comes again.
/// A shuffle orders the deck in mirrored pairs — a small card next to its
/// large counterpart, the pairs and their insides in random order — so
/// even part of a deck holds close to its share of the work.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(cards: impl IntoIterator<Item = usize>) -> Deck {
        Deck { cards: cards.into_iter().collect(), next: 0 }
    }

    fn shuffle(&mut self, rng: &mut Rng) {
        self.cards.sort_unstable();
        let n = self.cards.len();
        let mut pairs: Vec<Vec<usize>> =
            (0..n / 2).map(|i| vec![self.cards[i], self.cards[n - 1 - i]]).collect();
        if n % 2 == 1 {
            pairs.push(vec![self.cards[n / 2]]);
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i + 1));
        }
        for pair in &mut pairs {
            if rng.below(2) == 1 {
                pair.reverse();
            }
        }
        self.cards = pairs.concat();
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == 0 {
            self.shuffle(rng);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatDecode,
    LongPrompt,
    MoeRagged,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ChatDecode, Workload::LongPrompt, Workload::MoeRagged];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatDecode => "chat_decode",
            Workload::LongPrompt => "long_prompt",
            Workload::MoeRagged => "moe_ragged",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients of the serving workloads.
    pub fn clients(self) -> usize {
        match self {
            Workload::ChatDecode => 8,
            _ => 1,
        }
    }

    /// Entries of the fixed warm-up, re-run at the head of the measured phase.
    pub fn warmup(self) -> usize {
        match self {
            Workload::ChatDecode => 16,
            Workload::LongPrompt => 8,
            Workload::MoeRagged => 192,
        }
    }
}

/// One list entry. A serving session uses `prompt`/`new_tokens`; a
/// `moe_ragged` step uses `rows` (indices into the fixed token table).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Entry {
    pub prompt: Vec<i64>,
    pub new_tokens: usize,
    /// `chat_decode`: a 1-token session whose latency is its time to first token.
    pub probe: bool,
    /// `long_prompt`: the prompt length is not in the plan cache.
    pub fresh: bool,
    pub rows: Vec<usize>,
}

impl Entry {
    /// Tokens this entry contributes to `tokens_per_s`: generated tokens
    /// for `chat_decode`, prompt tokens for `long_prompt`, routed tokens
    /// for `moe_ragged`.
    pub fn counted_tokens(&self, w: Workload) -> usize {
        match w {
            Workload::ChatDecode => self.new_tokens,
            Workload::LongPrompt => self.prompt.len(),
            Workload::MoeRagged => self.rows.len(),
        }
    }
}

pub const NEW_TOKEN_COUNTS: [usize; 12] = [48, 52, 57, 61, 65, 70, 74, 78, 83, 87, 92, 96];

// Every list holds a whole number of each of its decks, so the measured
// phase can cycle it without a seam: 32 decks of 13 prompt lengths and 26
// decks of 12 new-token counts; 18 decks of 8 strata and 3 decks of 6
// lengths per stratum; 16 decks of 64 token counts.
const CHAT_DECODE_ENTRIES: usize = 416;
const LONG_PROMPT_PAIRS: usize = 144;
const MOE_RAGGED_STEPS: usize = 1024;

fn prompt(rng: &mut Rng, len: usize) -> Vec<i64> {
    let vocab = bench_llama().vocab as usize;
    (0..len).map(|_| rng.below(vocab) as i64).collect()
}

fn chat_decode(rng: &mut Rng) -> Vec<Entry> {
    let mut prompt_lens = Deck::new(4..=16);
    let mut new_tokens = Deck::new(NEW_TOKEN_COUNTS);
    (0..CHAT_DECODE_ENTRIES)
        .map(|i| {
            let probe = i % 4 == 3;
            let len = prompt_lens.deal(rng);
            Entry {
                prompt: prompt(rng, len),
                new_tokens: if probe { 1 } else { new_tokens.deal(rng) },
                probe,
                ..Entry::default()
            }
        })
        .collect()
}

/// Pairs of a fresh prompt length and an immediate repeat of it. Lengths
/// 16–63 come in 8 strata of 6; a fresh length differs from the three
/// before it, so none of its ~27 prefill plans can still be among the 64
/// cached ones.
fn long_prompt(rng: &mut Rng) -> Vec<Entry> {
    let mut strata = Deck::new(0..8);
    let mut within: Vec<Deck> = (0..8).map(|s| Deck::new(16 + 6 * s..22 + 6 * s)).collect();
    let mut recent: Vec<usize> = Vec::new();
    let mut list = Vec::with_capacity(2 * LONG_PROMPT_PAIRS);
    for _ in 0..LONG_PROMPT_PAIRS {
        let s = strata.deal(rng);
        let mut len = within[s].deal(rng);
        while recent.contains(&len) {
            len = within[s].deal(rng);
        }
        recent.push(len);
        if recent.len() > 3 {
            recent.remove(0);
        }
        for fresh in [true, false] {
            list.push(Entry { prompt: prompt(rng, len), new_tokens: 1, fresh, ..Entry::default() });
        }
    }
    list
}

fn moe_ragged(rng: &mut Rng) -> Vec<Entry> {
    let mut counts = Deck::new(1..=64);
    (0..MOE_RAGGED_STEPS)
        .map(|_| {
            let t = counts.deal(rng);
            Entry { rows: (0..t).map(|_| rng.below(MOE_TABLE_ROWS)).collect(), ..Entry::default() }
        })
        .collect()
}

/// The workload's list for a seed. The measured phase takes entries from
/// the front, cycling.
pub fn generate(w: Workload, seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed ^ fnv64(w.name().as_bytes()));
    match w {
        Workload::ChatDecode => chat_decode(&mut rng),
        Workload::LongPrompt => long_prompt(&mut rng),
        Workload::MoeRagged => moe_ragged(&mut rng),
    }
}

/// A hash of a list's whole content, cut to 48 bits so it survives a trip
/// through a JSON number.
pub fn list_hash(list: &[Entry]) -> u64 {
    let words = list.iter().flat_map(|e| {
        let head = [e.prompt.len() as u64, e.new_tokens as u64, e.rows.len() as u64];
        head.into_iter().chain(e.prompt.iter().map(|&t| t as u64)).chain(e.rows.iter().map(|&r| r as u64))
    });
    fnv64_words(words) & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work held by a stretch of a list, one number per dimension the
    /// program's cost depends on; `true` marks a sum of squares.
    fn work(w: Workload, stretch: &[Entry]) -> Vec<(&'static str, bool, f64)> {
        let sum = |f: &dyn Fn(&Entry) -> usize| stretch.iter().map(f).sum::<usize>() as f64;
        match w {
            Workload::ChatDecode => vec![
                ("prompt tokens", false, sum(&|e| e.prompt.len())),
                ("prompt tokens squared", true, sum(&|e| e.prompt.len().pow(2))),
                ("new tokens", false, sum(&|e| e.new_tokens)),
                ("attended context", true, sum(&|e| (0..e.new_tokens).map(|t| e.prompt.len() + t).sum())),
                ("probes", false, sum(&|e| usize::from(e.probe))),
            ],
            Workload::LongPrompt => vec![
                ("prompt tokens", false, sum(&|e| e.prompt.len())),
                ("prompt tokens squared", true, sum(&|e| e.prompt.len().pow(2))),
                ("fresh lengths", false, sum(&|e| usize::from(e.fresh))),
                ("fresh prompt tokens", false, sum(&|e| if e.fresh { e.prompt.len() } else { 0 })),
            ],
            Workload::MoeRagged => vec![("routed tokens", false, sum(&|e| e.rows.len()))],
        }
    }

    /// Between any two of seeds 1-20 a 200-entry stretch differs by less
    /// than 2 % in every linear dimension. A sum of squares moves by 1 %
    /// with the one 16-token prompt or 96-token session at a stretch's
    /// edge, so there every seed stays within 2 % of the mean over seeds.
    #[test]
    fn any_stretch_holds_the_same_work_whatever_the_seed() {
        for w in Workload::ALL {
            let lists: Vec<Vec<Entry>> = (1..=20).map(|s| generate(w, s)).collect();
            let len = lists[0].len();
            for start in (0..len).step_by(8) {
                // Stretches wrap, as the measured phase cycles the list.
                let stretch =
                    |l: &[Entry]| -> Vec<Entry> { (0..200).map(|i| l[(start + i) % len].clone()).collect() };
                let rows: Vec<_> = lists.iter().map(|l| work(w, &stretch(l))).collect();
                for (d, (what, squares, _)) in rows[0].iter().enumerate() {
                    let vals: Vec<f64> = rows.iter().map(|r| r[d].2).collect();
                    let (lo, hi) =
                        vals.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    let off = if *squares { (hi - mean).max(mean - lo) } else { hi - lo };
                    assert!(
                        off / mean < 0.02,
                        "{} {what} in entries {start}..+200 spans {lo}..{hi} over seeds 1-20",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn lists_follow_their_workload_rules() {
        let chat = generate(Workload::ChatDecode, 7);
        assert_eq!(chat.len(), 416);
        assert!(chat.iter().enumerate().all(|(i, e)| e.probe == (i % 4 == 3)
            && (4..=16).contains(&e.prompt.len())
            && if e.probe { e.new_tokens == 1 } else { NEW_TOKEN_COUNTS.contains(&e.new_tokens) }));
        let long = generate(Workload::LongPrompt, 7);
        for pair in long.chunks(2) {
            assert!(pair[0].fresh && !pair[1].fresh);
            assert_eq!(pair[0].prompt.len(), pair[1].prompt.len());
            assert!((16..=63).contains(&pair[0].prompt.len()));
            assert_ne!(pair[0].prompt, pair[1].prompt);
        }
        for w in long.chunks(2).collect::<Vec<_>>().windows(4) {
            let last = w[3][0].prompt.len();
            assert!(w[..3].iter().all(|p| p[0].prompt.len() != last), "fresh length seen just before");
        }
        let moe = generate(Workload::MoeRagged, 7);
        for deck in moe.chunks(64) {
            let mut counts: Vec<usize> = deck.iter().map(|e| e.rows.len()).collect();
            counts.sort_unstable();
            assert_eq!(counts, (1..=64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_seed_names_one_list() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 3), generate(w, 3));
            assert_ne!(list_hash(&generate(w, 3)), list_hash(&generate(w, 4)));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("spec_rollback"), None);
    }
}
