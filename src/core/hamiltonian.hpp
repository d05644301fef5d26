// Hamiltonian path and cycle queries on cographs (the corollary the paper
// highlights in §1: both are solved by the path cover machinery).
//
//  * Hamiltonian path  <=> minimum path cover size is 1.
//  * Hamiltonian cycle <=> n >= 3, the root split join(V, W) of the leftist
//    binarized cotree satisfies p(V) <= L(W).
//    Necessity: a Hamilton cycle alternates r >= p(V) maximal V-runs with r
//    W-runs, so L(W) >= r >= p(V). Sufficiency: bridge the p(V) paths of a
//    minimum cover of G(V) into a cycle with p(V) vertices of W and insert
//    the remaining L(W) - p(V) W-vertices into distinct V-gaps (capacity
//    L(V) - p(V) >= L(W) - p(V) by the leftist property).
#pragma once

#include <optional>
#include <vector>

#include "cograph/binarize.hpp"
#include "cograph/cotree.hpp"
#include "core/count.hpp"
#include "core/path_cover.hpp"

namespace copath::core {

/// True iff the cograph admits a Hamiltonian cycle.
bool has_hamiltonian_cycle(const cograph::Cotree& t);

/// The vertices of a Hamiltonian path in order, if one exists.
std::optional<std::vector<VertexId>> hamiltonian_path(
    const cograph::Cotree& t);

/// The vertices of a Hamiltonian cycle in order (closing edge implied), if
/// one exists.
std::optional<std::vector<VertexId>> hamiltonian_cycle(
    const cograph::Cotree& t);

}  // namespace copath::core
