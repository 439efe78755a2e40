/// \file daemon.h
/// \brief Process scaffolding shared by the predictd and predict_router
/// mains (and RaiseFdLimit by the serving benches): the fd soft limit
/// and the SIGTERM/SIGINT wait that starts a graceful drain.

#pragma once

#include "common/status.h"

namespace mrperf {

/// \brief Raises the fd soft limit to the hard limit. With event-loop
/// transports the connection count is bounded by fds, not threads, and
/// the default soft limit (often 1024) would cap a C10k deployment at a
/// tenth of its capacity. Best effort: failure keeps the current limit.
void RaiseFdLimit();

/// \brief Routes SIGTERM and SIGINT into a self-pipe, the only
/// async-signal-safe way to hand a signal to the main thread without
/// polling. Call once, before WaitForShutdownSignal().
Status InstallShutdownSignals();

/// \brief Blocks until SIGTERM or SIGINT arrives; returns its number.
int WaitForShutdownSignal();

}  // namespace mrperf
