#include "exec/sim_backend.h"

#include <memory>

namespace parbox::exec {

namespace {

Result<std::unique_ptr<ExecBackend>> MakeSimBackend(
    const sim::NetworkParams& network, std::string_view arg) {
  if (!arg.empty()) {
    return Status::InvalidArgument(
        "backend \"sim\" takes no argument (got \"" + std::string(arg) +
        "\")");
  }
  return std::unique_ptr<ExecBackend>(new SimBackend(network));
}

}  // namespace

PARBOX_REGISTER_EXEC_BACKEND(0, "sim", "sim", MakeSimBackend);

}  // namespace parbox::exec
