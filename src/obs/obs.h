#ifndef CDES_OBS_OBS_H_
#define CDES_OBS_OBS_H_

// Umbrella for the runtime observability layer: tracing + metrics handles
// that the schedulers, network and simulator thread through their option
// structs. Everything here is optional — a null TraceRecorder and a null
// MetricsRegistry cost one branch per instrumentation site.

#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace cdes {
class Simulator;
}  // namespace cdes

namespace cdes::obs {

/// Registers `sim` as the process's reference clock for log correlation:
/// subsequent CDES_LOG lines carry "@<tick>us" so operators can line logs
/// up with exported traces. Pass nullptr (or destroy via
/// UnregisterGlobalSimulator) to detach. Only one simulator is tracked;
/// re-registering replaces the previous one.
void RegisterGlobalSimulator(const Simulator* sim);

/// Detaches `sim` if it is the registered simulator (no-op otherwise —
/// safe to call from destructors of simulators that never registered).
void UnregisterGlobalSimulator(const Simulator* sim);

/// The registered simulator, or nullptr.
const Simulator* GlobalSimulator();

}  // namespace cdes::obs

#endif  // CDES_OBS_OBS_H_
