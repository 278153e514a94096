#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "harness/common.h"

namespace perfbench {

/// Three closed-loop connections query the optimized university
/// program over loopback sockets (lookup / bound / closure classes).
Outcome RunServeRecursive(const RunOptions& options);

/// One open-loop writer streams edge churn into a maintained view
/// while two closed-loop readers query it through the server.
Outcome RunUpdateFeed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
