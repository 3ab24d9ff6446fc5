#include "obs/profile.h"

#include <algorithm>

#include "obs/json.h"

namespace cqcount {
namespace obs {

void ShapeProfile::Observe(double exec_millis, uint64_t oracle_calls,
                           uint64_t estimator_calls, double estimate,
                           bool converged) {
  if (runs == 0) {
    min_exec_millis = exec_millis;
    max_exec_millis = exec_millis;
  } else {
    min_exec_millis = std::min(min_exec_millis, exec_millis);
    max_exec_millis = std::max(max_exec_millis, exec_millis);
  }
  ++runs;
  total_exec_millis += exec_millis;
  sq_exec_millis += exec_millis * exec_millis;
  last_exec_millis = exec_millis;
  total_oracle_calls += oracle_calls;
  total_estimator_calls += estimator_calls;
  if (converged) ++converged_runs;
  last_estimate = estimate;
}

double ShapeProfile::VarianceExecMillis() const {
  if (runs == 0) return 0.0;
  const double mean = MeanExecMillis();
  const double var =
      sq_exec_millis / static_cast<double>(runs) - mean * mean;
  return var > 0.0 ? var : 0.0;
}

std::string ShapeProfile::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("runs").Uint(runs);
  json.Key("mean_exec_ms").Double(MeanExecMillis());
  json.Key("var_exec_ms").Double(VarianceExecMillis());
  json.Key("last_exec_ms").Double(last_exec_millis);
  json.Key("min_exec_ms").Double(min_exec_millis);
  json.Key("max_exec_ms").Double(max_exec_millis);
  json.Key("total_oracle_calls").Uint(total_oracle_calls);
  json.Key("total_estimator_calls").Uint(total_estimator_calls);
  json.Key("converged_runs").Uint(converged_runs);
  json.Key("last_estimate").Double(last_estimate);
  json.EndObject();
  return json.Take();
}

}  // namespace obs
}  // namespace cqcount
