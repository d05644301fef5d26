// copath — time- and work-optimal minimum path cover on cographs.
//
// Reproduction of K. Nakano, S. Olariu, A. Y. Zomaya, "A Time-Optimal
// Solution for the Path Cover Problem on Cographs" (IPPS 1999 / TCS 290
// (2003) 1541-1556). See README.md for the quickstart and DESIGN.md for the
// system inventory.
//
// Public surface:
//   copath::Solver / Instance / SolveRequest /          THE entry point: one
//     SolveOptions / SolveResult / CountResult          request/response API
//                                                       over every backend,
//                                                       with batch solving
//   copath::Service, service::ResultCache               concurrent serving:
//                                                       async submit() with
//                                                       a canonical memo
//                                                       cache (binary
//                                                       signature keys),
//                                                       duplicate
//                                                       coalescing, an
//                                                       inline sweep
//                                                       express lane, and
//                                                       bounded
//                                                       backpressure
//   cograph::canonical_form / CanonicalForm             cotree identity
//                                                       modulo commutativity
//                                                       and relabeling
//   copath::Backend, core::BackendRegistry              engine selection and
//                                                       plug-in registration
//   cograph::Cotree / CotreeBuilder / parse-format      the input language
//   cograph::Graph, recognize_cograph                   graph-side substrate
//   exec::CheckedPram / exec::Native / exec::Traits     execution substrates
//                                                       (checked simulator
//                                                       vs direct memory)
//   pram::Machine / Policy / Stats                      the PRAM simulator
//
// Compatibility layer (free functions predating the Solver facade; they
// delegate to the same engines and remain supported):
//   core::min_path_cover_sequential                     Lemma 2.3, O(n)
//   core::min_path_cover_parallel / _pram               Theorem 5.3, EREW
//                                                       O(log n) / O(n) work
//   core::path_cover_size, path_counts_pram             Lemma 2.4
//   core::has_hamiltonian_path / _cycle, constructors   the §1 corollary
//   core::validate_path_cover                           independent checker
#pragma once

#include "cograph/binarize.hpp"
#include "cograph/canonical.hpp"
#include "cograph/cotree.hpp"
#include "cograph/families.hpp"
#include "cograph/graph.hpp"
#include "cograph/recognition.hpp"
#include "copath_solver.hpp"
#include "core/backend.hpp"
#include "core/brackets.hpp"
#include "core/count.hpp"
#include "core/forest.hpp"
#include "core/hamiltonian.hpp"
#include "core/or_reduction.hpp"
#include "core/path_cover.hpp"
#include "core/pipeline.hpp"
#include "core/reference.hpp"
#include "core/sequential.hpp"
#include "exec/checked_pram.hpp"
#include "exec/native.hpp"
#include "pram/array.hpp"
#include "pram/machine.hpp"
#include "service/express.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "util/mpmc_queue.hpp"

namespace copath {

// Convenience aliases so applications can stay inside `copath::`.
// (Solver, Instance, SolveRequest, SolveOptions, SolveResult, CountResult,
// and Backend already live in `copath::` via copath_solver.hpp.)
using cograph::canonical_form;
using cograph::CanonicalForm;
using cograph::Cotree;
using cograph::CotreeBuilder;
using cograph::Graph;
using cograph::NodeKind;
using cograph::recognize_cograph;
using cograph::VertexId;

using core::BackendRegistry;

using core::has_hamiltonian_cycle;
using core::has_hamiltonian_path;
using core::hamiltonian_cycle;
using core::hamiltonian_path;
using core::min_path_cover_parallel;
using core::min_path_cover_pram;
using core::min_path_cover_sequential;
using core::PathCover;
using core::path_cover_size;
using core::validate_path_cover;

}  // namespace copath
