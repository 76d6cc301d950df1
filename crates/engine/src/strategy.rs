//! The execution-strategy interface.

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::msg::Msg;
use crate::program::Program;
use crate::report::ExecReport;
use crate::system::SystemSim;
use llm_workload::Dfg;
use noc_sim::SwitchLogic;

/// An execution strategy: how a logical dataflow graph becomes kernels,
/// thread blocks and switch behaviour.
///
/// Implementations: the nine baselines in `cais-baselines` and the CAIS
/// variants in `cais-core`.
///
/// `Send` is a supertrait so strategies (and `Box<dyn Strategy>`) can be
/// moved into sweep worker threads; each job constructs and consumes its
/// strategy on one thread, so no `Sync` is required.
pub trait Strategy: Send {
    /// Display name used in experiment tables ("TP-NVLS", "CAIS", ...).
    fn name(&self) -> &str;

    /// Adjusts system knobs this strategy requires (ready-queue policy,
    /// traffic control, throttle credits). Called before lowering.
    fn tune(&self, _cfg: &mut SystemConfig) {}

    /// Lowers the workload graph into an executable program.
    fn lower(&self, dfg: &Dfg, cfg: &SystemConfig) -> Program;

    /// The in-switch logic this strategy runs (plain router, NVLS
    /// multicast/reduction, CAIS merge unit), built fresh for one run on
    /// `cfg`. This is the only way a strategy supplies its switch: the
    /// engine derives everything else the switch needs (such as the
    /// participant count of each sync group) from the program.
    fn switch_logic(&self, cfg: &SystemConfig) -> Box<dyn SwitchLogic<Msg>>;

    /// Runs an already-lowered `program` on `cfg` with
    /// [`Strategy::switch_logic`] installed in every switch plane.
    ///
    /// Each packet the switch handles costs one virtual call into the
    /// boxed logic. Strategies do not override this, so every run of
    /// every strategy takes this one path.
    ///
    /// # Errors
    ///
    /// Propagates the typed [`SimError`] from [`SystemSim::run`].
    fn run(&self, cfg: SystemConfig, program: Program) -> Result<ExecReport, SimError> {
        let logic = self.switch_logic(&cfg);
        SystemSim::new(cfg, program, logic).run()
    }
}

/// Lowers and executes `dfg` under `strategy`, returning the report.
///
/// This is the single entry point the experiment harness uses.
///
/// # Errors
///
/// Returns the typed [`SimError`] from [`SystemSim::run`] — deadlock,
/// deadline overrun, or fault-budget exhaustion — instead of panicking.
pub fn execute(
    strategy: &dyn Strategy,
    dfg: &Dfg,
    base_cfg: &SystemConfig,
) -> Result<ExecReport, SimError> {
    let mut cfg = base_cfg.clone();
    strategy.tune(&mut cfg);
    let program = strategy.lower(dfg, &cfg);
    strategy.run(cfg, program)
}
