// Evaluator: the strategy interface behind Session::Execute.
//
// Each of the distributed evaluation algorithms of Secs. 3 and 4 is an
// Evaluator — a stateless strategy object that runs on an Engine the
// Session has already prepared (validated query, per-site partition
// plan, fresh virtual clock). Algorithms self-register in the
// EvaluatorRegistry under a stable name, so everything that used to
// hand-maintain a list of the six algorithms (the bench engine
// switches, parboxq's flag parsing) is a registry lookup:
//
//   for (const std::string& name : EvaluatorRegistry::Instance().Names())
//     session.Execute(prepared, {.evaluator = name});

#ifndef PARBOX_CORE_EVALUATOR_H_
#define PARBOX_CORE_EVALUATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/report.h"

namespace parbox::core {

class Engine;

/// One evaluation strategy. Implementations are stateless: all per-run
/// state lives in the Engine, so one instance may serve many runs.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Registry key and CLI spelling, e.g. "parbox".
  virtual std::string_view name() const = 0;
  /// Display name used in RunReport::algorithm, e.g. "ParBoX".
  virtual std::string_view display_name() const = 0;
  /// One-line description for usage listings.
  virtual std::string_view description() const = 0;

  /// Evaluate the engine's prepared query. The engine's cluster is at
  /// virtual time 0 and the implementation drives it to completion.
  virtual Result<RunReport> Run(Engine& eng) const = 0;
};

/// Name -> factory registry of every linked-in evaluator.
class EvaluatorRegistry {
 public:
  using Factory = std::unique_ptr<Evaluator> (*)();

  static EvaluatorRegistry& Instance();

  /// Register under the evaluator's own name() (the factory is
  /// invoked once to read it, so the key cannot drift from the
  /// implementation); `order` fixes the canonical position in Names()
  /// (registration happens at static-init time in unspecified
  /// translation-unit order, so an explicit rank keeps listings
  /// deterministic).
  void Register(int order, Factory factory);

  /// All registered names, in canonical order.
  std::vector<std::string> Names() const;

  /// Instantiate by name; nullptr if unknown.
  std::unique_ptr<Evaluator> Create(std::string_view name) const;

  /// Instantiate by name; unknown names get an InvalidArgument Status
  /// listing every registered name.
  Result<std::unique_ptr<Evaluator>> CreateOrError(
      std::string_view name) const;

  /// "name1|name2|..." in canonical order (usage strings).
  std::string NamesJoined(char sep = '|') const;

  /// Static-init helper: constructing one registers the evaluator.
  struct Registrar {
    Registrar(int order, Factory factory);
  };

 private:
  struct Entry {
    std::string name;
    int order;
    Factory factory;
  };
  std::vector<Entry> entries_;  // kept sorted by (order, name)
};

/// Self-registration: expands to a file-local static whose constructor
/// adds `Type` to the registry, keyed by Type's own name(), at rank
/// `order`.
#define PARBOX_REGISTER_EVALUATOR(order, Type)                        \
  static const ::parbox::core::EvaluatorRegistry::Registrar           \
      parbox_evaluator_registrar_##Type(                              \
          order, []() -> std::unique_ptr<::parbox::core::Evaluator> { \
            return std::make_unique<Type>();                          \
          })

}  // namespace parbox::core

#endif  // PARBOX_CORE_EVALUATOR_H_
