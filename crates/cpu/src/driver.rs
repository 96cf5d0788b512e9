use slipstream_isa::{Instr, Retired};

/// One instruction slot handed to the core by its control-flow supplier.
///
/// The core never consults the program text itself: whoever drives it (a
/// trace-predictor front end, the delay buffer, an oracle) resolves PCs to
/// instructions and decides the predicted path. This is what lets one core
/// implementation serve the superscalar baselines, the A-stream (with
/// instructions removed), and the R-stream (fed from the delay buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchItem {
    /// Address of the instruction.
    pub pc: u64,
    /// The instruction at `pc`.
    pub instr: Instr,
    /// Predicted next PC *in the supplied stream* — i.e. the PC of the next
    /// item the driver intends to supply. Dispatch compares the actual
    /// next PC against this to detect control mispredictions.
    pub pred_npc: u64,
    /// Predicted conditional-branch outcome (`None` for non-branches).
    pub pred_taken: Option<bool>,
    /// Whether this instruction starts a new fetch block: a fresh fetch
    /// cycle must begin here (targets of taken branches/jumps, skip-chunk
    /// landing points, post-redirect restart).
    pub new_block: bool,
    /// Fetch slots this item consumes: 1 plus any immediately preceding
    /// removed-but-fetched instructions in the same block (the paper's
    /// ir-vec collapses those after fetch, before decode — they cost fetch
    /// bandwidth but not dispatch bandwidth).
    pub slot_cost: u32,
    /// Opaque driver tag, echoed back in [`CoreDriver::on_dispatch`],
    /// [`CoreDriver::on_retire`], and [`CoreDriver::on_redirect`] so the
    /// driver can correlate pipeline events with its own bookkeeping.
    pub meta: u64,
}

impl FetchItem {
    /// A plain sequential item: predicts fall-through, costs one slot.
    pub fn sequential(pc: u64, instr: Instr) -> FetchItem {
        FetchItem {
            pc,
            instr,
            pred_npc: pc + 4,
            pred_taken: instr.is_branch().then_some(false),
            new_block: false,
            slot_cost: 1,
            meta: 0,
        }
    }
}

/// A reusable, caller-owned block of fetch items.
///
/// [`crate::Core`] hands one of these to [`CoreDriver::next_fetch_block`]
/// once per fetch group instead of making one virtual call per instruction
/// slot. The block is a simple cursor over a recycled `Vec`:
/// items the core could not consume this cycle (fetch queue full, icache
/// miss, block boundary) stay in the block and are re-examined next cycle,
/// playing the role the old single-item `pending_fetch` stash did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FetchBlock {
    items: Vec<FetchItem>,
    head: usize,
}

// Hand-written so `clone_from` reuses the destination's item buffer when
// a whole `Core` is checkpointed every slack window.
impl Clone for FetchBlock {
    fn clone(&self) -> FetchBlock {
        FetchBlock {
            items: self.items.clone(),
            head: self.head,
        }
    }

    fn clone_from(&mut self, src: &FetchBlock) {
        self.items.clone_from(&src.items);
        self.head = src.head;
    }
}

impl FetchBlock {
    /// An empty block with no reserved capacity.
    pub fn new() -> FetchBlock {
        FetchBlock::default()
    }

    /// Discards all items (keeps the allocation for reuse).
    pub fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    /// Unconsumed items remaining in the block.
    pub fn len(&self) -> usize {
        self.items.len() - self.head
    }

    /// True when every item has been consumed (or none were supplied).
    pub fn is_empty(&self) -> bool {
        self.head == self.items.len()
    }

    /// The next unconsumed item, without consuming it.
    pub fn peek(&self) -> Option<&FetchItem> {
        self.items.get(self.head)
    }

    /// Consumes the item [`FetchBlock::peek`] returned.
    pub fn advance(&mut self) {
        debug_assert!(self.head < self.items.len());
        self.head += 1;
        if self.head == self.items.len() {
            self.clear();
        }
    }

    /// Appends an item (drivers call this from
    /// [`CoreDriver::next_fetch_block`]).
    pub fn push(&mut self, item: FetchItem) {
        self.items.push(item);
    }
}

/// Per-instruction hints returned by the driver at dispatch, implementing
/// the paper's value communication: operands whose values arrived from the
/// A-stream via the delay buffer are treated as ready immediately (value
/// prediction at the rename stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchHints {
    /// First source operand's value was predicted — don't wait for its
    /// producer.
    pub src1_predicted: bool,
    /// Second source operand's value was predicted.
    pub src2_predicted: bool,
}

/// Why a driver is (or is about to be) withholding work from its core this
/// cycle — a cycle-accounting hint sampled once at the top of every core
/// cycle. It carries no timing information and the core makes no timing
/// decision from it; it only routes otherwise-idle cycles to the right
/// [`crate::CpiCat`] bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DriverStall {
    /// Not stalled (or the driver doesn't report causes).
    #[default]
    None,
    /// The driver has nothing to supply (e.g. the R-stream's delay buffer
    /// is empty).
    Starved,
    /// Downstream back-pressure is throttling the core (e.g. the A-stream
    /// blocked on a full delay buffer via `retire_capacity`).
    Backpressure,
    /// The stream is frozen pending recovery (e.g. the R-stream between
    /// IR-misprediction detection and the A-stream's squash).
    Frozen,
}

/// The control-flow and observation interface a [`crate::Core`] is driven
/// by.
///
/// Call order within one simulated cycle: retirements first
/// ([`CoreDriver::on_retire`]), then any resolved misprediction
/// ([`CoreDriver::on_redirect`]), then dispatches
/// ([`CoreDriver::on_dispatch`]), then fetches
/// ([`CoreDriver::next_fetch_block`]).
pub trait CoreDriver {
    /// Supplies the next instructions on the predicted path: appends up to
    /// `max` items to `out`, stopping early when the stream idles this
    /// cycle (e.g. delay buffer empty, program done). The item sequence
    /// MUST NOT depend on how the core sizes its blocks — the
    /// property-test battery compares one-item blocks against randomized
    /// block sizes for every driver.
    fn next_fetch_block(&mut self, out: &mut FetchBlock, max: usize);

    /// A control misprediction resolved: `resolved` is the offending
    /// instruction's functional record; fetch restarts at
    /// `resolved.next_pc`. The driver must resynchronize its predictor
    /// state. Everything it supplied after this instruction was discarded.
    fn on_redirect(&mut self, resolved: &Retired, meta: u64);

    /// Called in program order as each instruction dispatches (with its
    /// functional outcome already computed). Returns value-prediction
    /// hints for the issue timing model.
    fn on_dispatch(&mut self, rec: &Retired, meta: u64) -> DispatchHints {
        let _ = (rec, meta);
        DispatchHints::default()
    }

    /// Called in program order as each instruction retires.
    fn on_retire(&mut self, rec: &Retired, meta: u64) {
        let _ = (rec, meta);
    }

    /// Maximum instructions the core may retire this cycle beyond the
    /// machine's retire width (used to model delay-buffer back-pressure on
    /// the A-stream). Defaults to unlimited.
    fn retire_capacity(&mut self) -> usize {
        usize::MAX
    }

    /// Cycle-accounting hint: why the driver is withholding or throttling
    /// work right now. Sampled once at the top of each core cycle, before
    /// retire/fetch run; never read by any timing decision. Defaults to
    /// [`DriverStall::None`].
    fn stall_kind(&self) -> DriverStall {
        DriverStall::None
    }
}
