// HE-VI acoustic (short time step) integrator — the fast-mode core of the
// time-splitting scheme (paper Sec. II and IV-A-3).
//
// Within each Wicker–Skamarock RK3 stage the acoustic subsystem is
// integrated with small steps dtau. Deviations (primes) about the RK-stage
// linearization state evolve under:
//
//   d U'/dtau   = -dx p'|z + S_U                (horizontal: explicit RK2)
//   d V'/dtau   = -dy p'|z + S_V
//   d W'/dtau   = -(1/J) dzeta p' - g rho'|zf + S_W   (vertical: implicit)
//   d rho'/dtau = -(1/J) div(J u rho)'         (continuity of deviations)
//   d Th'/dtau  = -(1/J) div(J u rho theta)' + S_Th   (theta_m, linearized
//                                                      with frozen face theta)
//   p' = (dp/d(rho theta))|bar * Th'           (linearized EOS)
//
// Eliminating p' and rho' from the implicit W' equation yields one
// tridiagonal ("1D Helmholtz-like elliptic", paper Fig. 5 kernel (4))
// system per vertical column, solved with the Thomas algorithm; columns
// are independent across the xy plane, which is exactly the parallelism
// the paper's GPU kernel exploits (Fig. 2b).
//
// The off-centering parameter beta (0.5 = centered, >0.5 damps acoustic
// noise) weights the implicit terms.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "src/common/constants.hpp"
#include "src/core/boundary.hpp"
#include "src/core/eos.hpp"
#include "src/core/pgf.hpp"
#include "src/core/state.hpp"
#include "src/core/tendencies.hpp"
#include "src/core/tridiagonal.hpp"
#include "src/field/simd.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/grid/grid.hpp"
#include "src/instrument/kernel_registry.hpp"

namespace asuca {

struct AcousticConfig {
    double beta = 0.6;  ///< implicit off-centering (0.5..1)
    /// Has no effect. The paper's Sec. V-A method 3 "logical fusion" of
    /// the density and potential-temperature updates is how the implicit
    /// sweep is built on every driver: each column's rho', theta' and p'
    /// are finished inside the sweep. Kept only because
    /// perfbench/src/integrate.cpp:339 still assigns it.
    bool fuse_density_theta = false;
    /// Column-batch width of the vertical implicit solve (the CPU analogue
    /// of the paper's kij->xzy layout change, Sec. IV-A-1): W columns are
    /// swept simultaneously with the column index innermost and
    /// unit-stride (a SIMD-ready shape; see field/simd.hpp for what the
    /// default flags actually vectorize).
    ///   0   — auto: ASUCA_COLUMN_BATCH env override, else the SIMD
    ///         default (field/simd.hpp);
    ///   W>0 — batched with exactly W columns per sweep (1 = one lane).
    /// Every width produces bitwise-identical results on default builds
    /// (each lane runs the scalar op sequence; see DESIGN.md).
    Index column_batch = 0;
};

/// The paper's three post-solve update kernels (Fig. 1 "Equation of
/// continuity", "Update potential temperature", "Update pressure") for one
/// cell, with each kernel's traits. The implicit sweep finishes its
/// columns with them inside `helmholtz_1d`; `calibrate_flops` counts each
/// once to split them back out for the GPU model, which launches them as
/// separate kernels. w_lo/w_hi: new W' at the cell's lower/upper face.
namespace implicit_update {
inline constexpr KernelTraits continuity_traits{/*reads=*/3, /*writes=*/1, 2};
inline constexpr KernelTraits theta_traits{/*reads=*/4, /*writes=*/1, 4};
inline constexpr KernelTraits pressure_traits{/*reads=*/2, /*writes=*/1, 0};

template <class T>
T continuity(T rv, T dv, T w_lo, T w_hi) {
    return rv - dv * (w_hi - w_lo);
}
template <class T>
T theta(T cv, T dv, T thf_lo, T thf_hi, T w_lo, T w_hi) {
    return cv - dv * (thf_hi * w_hi - thf_lo * w_lo);
}
template <class T>
T pressure(T cpt, T dth) {
    return cpt * dth;
}
}  // namespace implicit_update

template <class T>
class AcousticStepper {
  public:
    AcousticStepper(const Grid<T>& grid, const AcousticConfig& config)
        : grid_(grid), cfg_(config),
          cpt_(center_shape(grid), grid.halo(), grid.layout()),
          thf_x_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
                 grid.layout()),
          thf_y_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
                 grid.layout()),
          thf_z_({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
                 grid.layout()),
          du_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
              grid.layout()),
          dv_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
              grid.layout()),
          dw_({grid.nx(), grid.ny(), grid.nz() + 1}, grid.halo(),
              grid.layout()),
          drho_(center_shape(grid), grid.halo(), grid.layout()),
          dth_(center_shape(grid), grid.halo(), grid.layout()),
          dp_(center_shape(grid), grid.halo(), grid.layout()),
          dp_half_(center_shape(grid), grid.halo(), grid.layout()),
          tend_u_({grid.nx() + 1, grid.ny(), grid.nz()}, grid.halo(),
                  grid.layout()),
          tend_v_({grid.nx(), grid.ny() + 1, grid.nz()}, grid.halo(),
                  grid.layout()),
          batch_w_(resolve_column_batch<T>(config.column_batch)) {
        ASUCA_REQUIRE(config.beta >= 0.5 && config.beta <= 1.0,
                      "acoustic beta must be in [0.5, 1], got "
                          << config.beta);
    }

    /// Resolved column-batch width (config / env / SIMD default).
    Index column_batch_width() const { return batch_w_; }

    /// Freeze the linearization coefficients at the RK-stage state.
    void prepare(const State<T>& bar) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const Index h = grid_.halo();
        KernelScope scope("acoustic_prepare", {/*reads=*/3, /*writes=*/4, 2},
                          static_cast<std::uint64_t>(nx * ny * nz));
        auto theta = [&](Index i, Index j, Index k) {
            return bar.rhotheta(i, j, k) / bar.rho(i, j, k);
        };
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        cpt_(i, j, k) = eos_dp_drhotheta(
                            bar.p(i, j, k), bar.rhotheta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 2; i < nx + h - 1; ++i) {
                        thf_x_(i, j, k) =
                            T(0.5) * (theta(i - 1, j, k) + theta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 2, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k < nz; ++k) {
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        thf_y_(i, j, k) =
                            T(0.5) * (theta(i, j - 1, k) + theta(i, j, k));
                    }
                }
            }
        });
        parallel_for_range(-h + 1, ny + h - 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index k = 0; k <= nz; ++k) {
                    const Index km = k > 0 ? k - 1 : 0;
                    const Index kc = k < nz ? k : nz - 1;
                    for (Index i = -h + 1; i < nx + h - 1; ++i) {
                        thf_z_(i, j, k) =
                            T(0.5) * (theta(i, j, km) + theta(i, j, kc));
                    }
                }
            }
        });
    }

    /// Deviations at the start of the stage: current state minus the
    /// linearization state (zero on the first RK stage).
    void init_deviations(const State<T>& now, const State<T>& bar) {
        diff_into(now.rhou, bar.rhou, du_);
        diff_into(now.rhov, bar.rhov, dv_);
        diff_into(now.rhow, bar.rhow, dw_);
        diff_into(now.rho, bar.rho, drho_);
        diff_into(now.rhotheta, bar.rhotheta, dth_);
        const Index h = grid_.halo();
        parallel_for_range(-h, grid_.ny() + h, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < grid_.nz(); ++k)
                    for (Index i = -h; i < grid_.nx() + h; ++i)
                        dp_(i, j, k) = cpt_(i, j, k) * dth_(i, j, k);
        });
    }

    /// The deviation arrays one halo fill covers, in canonical order.
    using HaloFields = std::initializer_list<Array3<T>*>;

    /// Advance the deviations by one acoustic substep of length dtau.
    /// `fill_halos(HaloFields)` refreshes the lateral halos of a group of
    /// deviations between phases: the lateral BC on a single domain, a
    /// real neighbor exchange on a decomposed one (the paper's
    /// per-short-step MPI exchanges, Sec. V-A). Two fills per substep,
    /// each for the one kernel that reads across a lateral edge: dp_half
    /// for the horizontal pressure gradient, then du, dv for the bottom
    /// kinematic condition. dw, drho, dth and dp need none: the theta
    /// half step, the Helmholtz sweep and the rho/theta/p updates read
    /// only their own column, and the halo cells finalize() copies into
    /// the state are overwritten by the state's next lateral fill before
    /// anything reads them.
    template <class FillHalos>
    void substep(const Tendencies<T>& slow, double dtau,
                 FillHalos&& fill_halos) {
        phase_theta_half(slow, dtau);
        fill_halos(HaloFields{&dp_half_});
        phase_horizontal_momentum(slow, dtau);
        fill_halos(HaloFields{&du_, &dv_});
        phase_bottom_kinematic();
        phase_vertical_implicit(slow, dtau);
    }

    /// Single-domain substep: halos filled by the lateral BC.
    void substep(const Tendencies<T>& slow, double dtau, LateralBc bc) {
        substep(slow, dtau, [&](HaloFields fields) {
            const auto scope = boundary_ops_scope(grid_, fields.size());
            for (Array3<T>* a : fields)
                apply_lateral_bc(*a, bc, grid_.nx(), grid_.ny());
        });
    }

    /// Reconstruct the full state: out = bar + deviations, with the full
    /// (nonlinear) EOS pressure diagnostic.
    void finalize(const State<T>& bar, State<T>& out) const {
        sum_into(bar.rhou, du_, out.rhou);
        sum_into(bar.rhov, dv_, out.rhov);
        sum_into(bar.rhow, dw_, out.rhow);
        sum_into(bar.rho, drho_, out.rho);
        sum_into(bar.rhotheta, dth_, out.rhotheta);
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        KernelScope scope("eos_pressure", {/*reads=*/1, /*writes=*/1, 0},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        out.p(i, j, k) = eos_pressure(out.rhotheta(i, j, k));
        });
    }

    /// Deviation accessors. Mutable access is for multi-domain halo
    /// exchangers, which overwrite halo strips between phases.
    const Array3<T>& dw() const { return dw_; }
    const Array3<T>& drho() const { return drho_; }
    Array3<T>& du() { return du_; }
    Array3<T>& dv() { return dv_; }
    Array3<T>& dw() { return dw_; }
    Array3<T>& drho() { return drho_; }
    Array3<T>& dth() { return dth_; }
    Array3<T>& dp() { return dp_; }
    Array3<T>& dp_half() { return dp_half_; }

  private:
    static Int3 center_shape(const Grid<T>& g) {
        return {g.nx(), g.ny(), g.nz()};
    }

    template <class A>
    static void diff_into(const A& a, const A& b, A& out) {
        const Index h = a.halo();
        parallel_for_range(-h, a.ny() + h, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = -h; k < a.nz() + h; ++k)
                    for (Index i = -h; i < a.nx() + h; ++i)
                        out(i, j, k) = a(i, j, k) - b(i, j, k);
        });
    }
    template <class A>
    static void sum_into(const A& a, const A& d, A& out) {
        const Index h = a.halo();
        parallel_for_range(-h, a.ny() + h, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = -h; k < a.nz() + h; ++k)
                    for (Index i = -h; i < a.nx() + h; ++i)
                        out(i, j, k) = a(i, j, k) + d(i, j, k);
        });
    }

  public:
    /// RK2 (midpoint) phase 1: provisional theta' at tau + dtau/2 and the
    /// midpoint pressure dp_half (paper: "short time steps ... employ the
    /// second-order Runge-Kutta scheme"). Caller must then fill dp_half
    /// halos (BC or exchange).
    void phase_theta_half(const Tendencies<T>& slow, double dtau) {
        phase_theta_half_region(slow, dtau, 0, grid_.nx(), 0, grid_.ny());
    }

    /// Region-restricted phase 1 over cells [i0,i1) x [j0,j1): the
    /// overlapped multi-domain runner computes the boundary frame first
    /// (whose dp_half values feed the halo channels), posts it, and then
    /// computes the interior while the strips are in flight (paper
    /// Sec. V-A method 2). Reads only current-substep deviations at the
    /// cell's own and +1 stagger positions — no lateral halos — so any
    /// disjoint cover of the interior is bitwise identical to one
    /// full-range call.
    void phase_theta_half_region(const Tendencies<T>& slow, double dtau,
                                 Index i0, Index i1, Index j0, Index j1) {
        const Index nz = grid_.nz();
        const T rdx = T(1.0 / grid_.dx());
        const T rdy = T(1.0 / grid_.dy());
        const auto& jc = grid_.jacobian();
        const auto& jxf = grid_.jacobian_xface();
        const auto& jyf = grid_.jacobian_yface();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        const T half_dtau = T(0.5 * dtau);

        {
            KernelScope scope("theta_update_half",
                              {/*reads=*/10, /*writes=*/1, 14},
                              static_cast<std::uint64_t>(
                                  (i1 - i0) * (j1 - j0) * nz));
            parallel_for_range(j0, j1, [&](Index jb, Index je) {
            // Rolling buffers of the vertical deviation flux at the two
            // faces bracketing level k ((J rho u3)' with the current
            // deviations, zero at the bottom/top faces; computed once per
            // face instead of twice per cell). The inner i loops are
            // unit-stride under Layout::XZY and carry no branches (GCC 12
            // at -O2 still does not vectorize them); per-cell arithmetic
            // is unchanged, hence bitwise identical to the unbuffered form.
            const auto wi = static_cast<std::size_t>(i1 - i0);
            std::vector<T> fz_lo(wi), fz_hi(wi);
            for (Index j = jb; j < je; ++j) {
                std::fill(fz_lo.begin(), fz_lo.end(), T(0));  // bottom face
                for (Index k = 0; k < nz; ++k) {
                    const T rdz = T(1.0 / grid_.dzeta(k));
                    const Index kf = k + 1;  // upper face of level k
                    if (kf >= nz) {
                        std::fill(fz_hi.begin(), fz_hi.end(), T(0));
                    } else {
                        for (Index i = i0; i < i1; ++i) {
                            const T ru =
                                T(0.25) *
                                (du_(i, j, kf - 1) + du_(i + 1, j, kf - 1) +
                                 du_(i, j, kf) + du_(i + 1, j, kf));
                            const T rv =
                                T(0.25) *
                                (dv_(i, j, kf - 1) + dv_(i, j + 1, kf - 1) +
                                 dv_(i, j, kf) + dv_(i, j + 1, kf));
                            fz_hi[static_cast<std::size_t>(i - i0)] =
                                dw_(i, j, kf) - ru * zx(i, j, kf) -
                                rv * zy(i, j, kf);
                        }
                    }
                    for (Index i = i0; i < i1; ++i) {
                        const auto l = static_cast<std::size_t>(i - i0);
                        const T div =
                            (jxf(i + 1, j, k) * thf_x_(i + 1, j, k) *
                                 du_(i + 1, j, k) -
                             jxf(i, j, k) * thf_x_(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * thf_y_(i, j + 1, k) *
                                 dv_(i, j + 1, k) -
                             jyf(i, j, k) * thf_y_(i, j, k) * dv_(i, j, k)) *
                                rdy +
                            (thf_z_(i, j, k + 1) * fz_hi[l] -
                             thf_z_(i, j, k) * fz_lo[l]) *
                                rdz;
                        const T dth_half =
                            dth_(i, j, k) +
                            half_dtau * (slow.rhotheta(i, j, k) -
                                         div / jc(i, j, k));
                        dp_half_(i, j, k) = cpt_(i, j, k) * dth_half;
                    }
                    fz_lo.swap(fz_hi);
                }
            }
            });
        }
    }

    /// RK2 phase 2: full-step update of the horizontal momentum deviations
    /// with the midpoint pressure gradient (paper Fig. 5 kernel (2)).
    /// Requires dp_half halos to be valid; caller must refresh du/dv halos
    /// afterwards.
    void phase_horizontal_momentum(const Tendencies<T>& slow, double dtau) {
        phase_momentum_x_rows(slow, dtau, 0, grid_.ny());
        phase_momentum_y_rows(slow, dtau, 0, grid_.ny());
    }

    /// x-momentum update restricted to rows [j0, j1). pgf_x reads only
    /// depth-1 x halos of dp_half — no y halos — so the overlapped runner
    /// launches ALL rows right after the dp_half x-strips unpack, without
    /// waiting for the y exchange (paper Sec. V-A method 2). Row regions
    /// are disjoint with unchanged per-cell arithmetic, hence bitwise
    /// identical to one full-range call.
    void phase_momentum_x_rows(const Tendencies<T>& slow, double dtau,
                               Index j0, Index j1) {
        const Index nx = grid_.nx(), nz = grid_.nz();
        KernelScope scope("pgf_x_short", {/*reads=*/4, /*writes=*/1, 16},
                          static_cast<std::uint64_t>(nx * (j1 - j0) * nz));
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) tend_u_(i, j, k) = T(0);
        });
        pgf_x_rows(grid_, dp_half_, tend_u_, j0, j1);
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        du_(i, j, k) += T(dtau) * (tend_u_(i, j, k) +
                                                    slow.rhou(i, j, k));
        });
    }

    /// y-momentum update restricted to face rows [j0, j1). Face row j
    /// reads dp_half rows j-1 and j, so rows [1, ny) run before the south
    /// y halo arrives; only row 0 waits for it.
    void phase_momentum_y_rows(const Tendencies<T>& slow, double dtau,
                               Index j0, Index j1) {
        const Index nx = grid_.nx(), nz = grid_.nz();
        KernelScope scope("pgf_y_short", {/*reads=*/4, /*writes=*/1, 16},
                          static_cast<std::uint64_t>(nx * (j1 - j0) * nz));
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i) tend_v_(i, j, k) = T(0);
        });
        pgf_y_rows(grid_, dp_half_, tend_v_, j0, j1);
        parallel_for_range(j0, j1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                for (Index k = 0; k < nz; ++k)
                    for (Index i = 0; i < nx; ++i)
                        dv_(i, j, k) += T(dtau) * (tend_v_(i, j, k) +
                                                    slow.rhov(i, j, k));
        });
    }

    /// The bottom kinematic condition for the deviation field; requires
    /// du/dv halos to be valid (one ring).
    void phase_bottom_kinematic() {
        const Index nx = grid_.nx(), ny = grid_.ny();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        parallel_for_range(-1, ny + 1, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                for (Index i = -1; i < nx + 1; ++i) {
                    const T dmu = T(0.5) * (du_(i, j, 0) + du_(i + 1, j, 0));
                    const T dmv = T(0.5) * (dv_(i, j, 0) + dv_(i, j + 1, 0));
                    dw_(i, j, 0) = dmu * zx(i, j, 0) + dmv * zy(i, j, 0);
                }
            }
        });
    }

    /// Metric part only: (rho u zx + rho v zy)' at z-face k (new du, dv).
    T deviation_metric(Index i, Index j, Index k) const {
        const Index nz = grid_.nz();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        const Index km = k > 0 ? k - 1 : 0;
        const Index kc = k < nz ? k : nz - 1;
        const T ru = T(0.25) * (du_(i, j, km) + du_(i + 1, j, km) +
                                du_(i, j, kc) + du_(i + 1, j, kc));
        const T rv = T(0.25) * (dv_(i, j, km) + dv_(i, j + 1, km) +
                                dv_(i, j, kc) + dv_(i, j + 1, kc));
        return ru * zx(i, j, k) + rv * zy(i, j, k);
    }

    /// Phase 3: build and solve the vertical implicit (Helmholtz) system,
    /// then update rho', theta', p' from it, one column batch at a time
    /// (own cells only; no halo is refreshed afterwards, see substep()).
    void phase_vertical_implicit(const Tendencies<T>& slow, double dtau) {
        phase_vertical_implicit_batched(slow, dtau, batch_w_);
    }

    /// The original one-column-at-a-time Helmholtz sweep. No production
    /// caller: it is the reference implementation the batched sweep is
    /// tested against.
    void phase_vertical_implicit_scalar(const Tendencies<T>& slow,
                                        double dtau) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const T rdx = T(1.0 / grid_.dx());
        const T rdy = T(1.0 / grid_.dy());
        const auto& jc = grid_.jacobian();
        const auto& jzf = grid_.jacobian_zface();
        const auto& jxf = grid_.jacobian_xface();
        const auto& jyf = grid_.jacobian_yface();
        const T beta = T(cfg_.beta);
        const T one_m_beta = T(1.0) - beta;
        const T g = T(constants::g);
        const T dt = T(dtau);

        const std::size_t n = static_cast<std::size_t>(nz);

        {
        KernelScope scope("helmholtz_1d", {/*reads=*/12, /*writes=*/4, 12},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
        // Per-thread column workspaces (the per-thread registers of the
        // paper's z-marching Helmholtz kernel, Fig. 2b).
        std::vector<T> Cv(n), Rv(n), Dv(n), hrho(n), hth(n);
        std::vector<T> fzs(n + 1), thfz(n + 1), dwold(n + 1);
        std::vector<T> sub(n), dia(n), sup(n), rhs(n), scratch(n);
        for (Index j = jb; j < je; ++j) {
            for (Index i = 0; i < nx; ++i) {
                // Per-column setup.
                for (Index k = 0; k <= nz; ++k) {
                    const auto ku = static_cast<std::size_t>(k);
                    thfz[ku] = thf_z_(i, j, k);
                    dwold[ku] = dw_(i, j, k);
                    if (k == 0 || k == nz) {
                        fzs[ku] = T(0);
                    } else {
                        fzs[ku] = one_m_beta * dw_(i, j, k) -
                                  deviation_metric(i, j, k);
                    }
                }
                for (Index k = 0; k < nz; ++k) {
                    const auto ku = static_cast<std::size_t>(k);
                    const T rdz = T(1.0 / grid_.dzeta(k));
                    Dv[ku] = dt * beta * rdz / jc(i, j, k);
                    // Horizontal deviation divergences with new du, dv.
                    const T hdiv_rho =
                        (jxf(i + 1, j, k) * du_(i + 1, j, k) -
                         jxf(i, j, k) * du_(i, j, k)) *
                            rdx +
                        (jyf(i, j + 1, k) * dv_(i, j + 1, k) -
                         jyf(i, j, k) * dv_(i, j, k)) *
                            rdy;
                    const T hdiv_th =
                        (jxf(i + 1, j, k) * thf_x_(i + 1, j, k) *
                             du_(i + 1, j, k) -
                         jxf(i, j, k) * thf_x_(i, j, k) * du_(i, j, k)) *
                            rdx +
                        (jyf(i, j + 1, k) * thf_y_(i, j + 1, k) *
                             dv_(i, j + 1, k) -
                         jyf(i, j, k) * thf_y_(i, j, k) * dv_(i, j, k)) *
                            rdy;
                    hrho[ku] = -hdiv_rho / jc(i, j, k);
                    hth[ku] = -hdiv_th / jc(i, j, k);
                    const T vflux_rho =
                        (fzs[ku + 1] - fzs[ku]) * rdz / jc(i, j, k);
                    const T vflux_th = (thfz[ku + 1] * fzs[ku + 1] -
                                        thfz[ku] * fzs[ku]) *
                                       rdz / jc(i, j, k);
                    Rv[ku] = drho_(i, j, k) +
                             dt * (hrho[ku] + slow.rho(i, j, k) - vflux_rho);
                    Cv[ku] = dth_(i, j, k) +
                             dt * (hth[ku] + slow.rhotheta(i, j, k) -
                                   vflux_th);
                }
                // Assemble the tridiagonal system for W' at faces 1..nz-1.
                for (Index k = 1; k < nz; ++k) {
                    const auto ku = static_cast<std::size_t>(k);
                    const auto km = ku - 1;
                    const T gk = dt / (jzf(i, j, k) *
                                       T(grid_.zeta_center(k) -
                                         grid_.zeta_center(k - 1)));
                    const T cpt_k = cpt_(i, j, k);
                    const T cpt_m = cpt_(i, j, k - 1);
                    const T gb = gk * beta;
                    const T hgb = T(0.5) * dt * g * beta;

                    T a = -gb * cpt_m * Dv[km] * thfz[km] + hgb * Dv[km];
                    T b = T(1) +
                          gb * (cpt_k * Dv[ku] * thfz[ku] +
                                cpt_m * Dv[km] * thfz[ku]) +
                          hgb * (Dv[ku] - Dv[km]);
                    T c = -gb * cpt_k * Dv[ku] * thfz[ku + 1] - hgb * Dv[ku];
                    T r = dwold[ku] + dt * slow.rhow(i, j, k) -
                          gk * (beta * (cpt_k * Cv[ku] - cpt_m * Cv[km]) +
                                one_m_beta *
                                    (dp_(i, j, k) - dp_(i, j, k - 1))) -
                          dt * g *
                              (beta * T(0.5) * (Rv[km] + Rv[ku]) +
                               one_m_beta * T(0.5) *
                                   (drho_(i, j, k - 1) + drho_(i, j, k)));
                    // Boundary folds: W'_0 and W'_nz carry no flux, so the
                    // couplings through cells 0 and nz-1 simply drop.
                    if (k == 1) a = T(0);
                    if (k == nz - 1) c = T(0);
                    sub[km] = a;
                    dia[km] = b;
                    sup[km] = c;
                    rhs[km] = r;
                }
                solve_tridiagonal<T>(
                    std::span<const T>(sub.data(), n - 1),
                    std::span<const T>(dia.data(), n - 1),
                    std::span<const T>(sup.data(), n - 1),
                    std::span<T>(rhs.data(), n - 1),
                    std::span<T>(scratch.data(), n - 1));
                for (Index k = 1; k < nz; ++k) {
                    dw_(i, j, k) = rhs[static_cast<std::size_t>(k - 1)];
                }
                dw_(i, j, nz) = T(0);

                // Finish the column (the paper's Fig. 1 continuity, theta
                // and pressure updates) with the new W' at its faces.
                for (Index k = 0; k < nz; ++k) {
                    const auto ku = static_cast<std::size_t>(k);
                    const T w_lo = (k == 0) ? T(0) : rhs[ku - 1];
                    const T w_hi = (k == nz - 1) ? T(0) : rhs[ku];
                    drho_(i, j, k) = implicit_update::continuity(
                        Rv[ku], Dv[ku], w_lo, w_hi);
                    const T dth = implicit_update::theta(
                        Cv[ku], Dv[ku], thfz[ku], thfz[ku + 1], w_lo, w_hi);
                    dth_(i, j, k) = dth;
                    dp_(i, j, k) =
                        implicit_update::pressure(cpt_(i, j, k), dth);
                }
            }
        }
        });
        }  // helmholtz_1d scope
    }

    /// Column-batched Helmholtz sweep: march `width` columns of one j-row
    /// simultaneously over interleaved column-block workspaces (lane index
    /// innermost and unit-stride, the CPU analogue of the paper's xzy
    /// storage order, Sec. IV-A-1), and finish each block's rho', theta'
    /// and p' while its Rv/Cv/Dv and new W' are still in the per-thread
    /// workspace. Public with an explicit width so tests can pin any W
    /// against the scalar sweep.
    void phase_vertical_implicit_batched(const Tendencies<T>& slow,
                                         double dtau, Index width) {
        const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
        const T rdx = T(1.0 / grid_.dx());
        const T rdy = T(1.0 / grid_.dy());
        const auto& jc = grid_.jacobian();
        const auto& jzf = grid_.jacobian_zface();
        const auto& jxf = grid_.jacobian_xface();
        const auto& jyf = grid_.jacobian_yface();
        const auto& zx = grid_.slope_x_zface();
        const auto& zy = grid_.slope_y_zface();
        const T beta = T(cfg_.beta);
        const T one_m_beta = T(1.0) - beta;
        const T g = T(constants::g);
        const T dt = T(dtau);
        const T hgb = T(0.5) * dt * g * beta;

        const auto n = static_cast<std::size_t>(nz);
        const auto W = static_cast<std::size_t>(width);

        KernelScope scope("helmholtz_1d", {/*reads=*/12, /*writes=*/4, 12},
                          static_cast<std::uint64_t>(nx * ny * nz));
        parallel_for(ny, [&](Index jb, Index je) {
        // Interleaved column-block workspaces: level k of lane l lives at
        // k*W + l, so every inner lane loop below is unit-stride.
        // Allocated once per j-slab.
        std::vector<T> fzs((n + 1) * W);
        std::vector<T> Dv(n * W), Rv(n * W), Cv(n * W);
        std::vector<T> sub(n * W), dia(n * W), sup(n * W), rhs(n * W),
            scratch(n * W), betav(W);
        for (Index j = jb; j < je; ++j) {
            for (Index ib = 0; ib < nx; ib += width) {
                const Index iw = std::min(width, nx - ib);
                const auto w = static_cast<std::size_t>(iw);
                // Vertical deviation fluxes at interior faces (zero at the
                // bottom/top faces), lane-interleaved.
                for (std::size_t l = 0; l < w; ++l) {
                    fzs[l] = T(0);
                    fzs[n * W + l] = T(0);
                }
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const T ru =
                            T(0.25) *
                            (du_(i, j, k - 1) + du_(i + 1, j, k - 1) +
                             du_(i, j, k) + du_(i + 1, j, k));
                        const T rv =
                            T(0.25) *
                            (dv_(i, j, k - 1) + dv_(i, j + 1, k - 1) +
                             dv_(i, j, k) + dv_(i, j + 1, k));
                        fzs[row + static_cast<std::size_t>(l)] =
                            one_m_beta * dw_(i, j, k) -
                            (ru * zx(i, j, k) + rv * zy(i, j, k));
                    }
                }
                // Explicit parts of the continuity and theta updates.
                for (Index k = 0; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    const T rdz = T(1.0 / grid_.dzeta(k));
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        Dv[row + lu] = dt * beta * rdz / jc(i, j, k);
                        const T hdiv_rho =
                            (jxf(i + 1, j, k) * du_(i + 1, j, k) -
                             jxf(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * dv_(i, j + 1, k) -
                             jyf(i, j, k) * dv_(i, j, k)) *
                                rdy;
                        const T hdiv_th =
                            (jxf(i + 1, j, k) * thf_x_(i + 1, j, k) *
                                 du_(i + 1, j, k) -
                             jxf(i, j, k) * thf_x_(i, j, k) * du_(i, j, k)) *
                                rdx +
                            (jyf(i, j + 1, k) * thf_y_(i, j + 1, k) *
                                 dv_(i, j + 1, k) -
                             jyf(i, j, k) * thf_y_(i, j, k) * dv_(i, j, k)) *
                                rdy;
                        const T hrho = -hdiv_rho / jc(i, j, k);
                        const T hth = -hdiv_th / jc(i, j, k);
                        const T vflux_rho =
                            (fzs[row + W + lu] - fzs[row + lu]) * rdz /
                            jc(i, j, k);
                        const T vflux_th =
                            (thf_z_(i, j, k + 1) * fzs[row + W + lu] -
                             thf_z_(i, j, k) * fzs[row + lu]) *
                            rdz / jc(i, j, k);
                        Rv[row + lu] =
                            drho_(i, j, k) +
                            dt * (hrho + slow.rho(i, j, k) - vflux_rho);
                        Cv[row + lu] =
                            dth_(i, j, k) +
                            dt * (hth + slow.rhotheta(i, j, k) - vflux_th);
                    }
                }
                // Assemble the tridiagonal systems for W' at faces
                // 1..nz-1 (system row k-1, lane-interleaved).
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row =
                        static_cast<std::size_t>(k - 1) * W;
                    const std::size_t ku = row + W;  // level k block
                    const std::size_t km = row;      // level k-1 block
                    const T dzc = T(grid_.zeta_center(k) -
                                    grid_.zeta_center(k - 1));
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        const T gk = dt / (jzf(i, j, k) * dzc);
                        const T cpt_k = cpt_(i, j, k);
                        const T cpt_m = cpt_(i, j, k - 1);
                        const T gb = gk * beta;
                        const T thf_m = thf_z_(i, j, k - 1);
                        const T thf_k = thf_z_(i, j, k);
                        const T thf_p = thf_z_(i, j, k + 1);
                        T a = -gb * cpt_m * Dv[km + lu] * thf_m +
                              hgb * Dv[km + lu];
                        T b = T(1) +
                              gb * (cpt_k * Dv[ku + lu] * thf_k +
                                    cpt_m * Dv[km + lu] * thf_k) +
                              hgb * (Dv[ku + lu] - Dv[km + lu]);
                        T c = -gb * cpt_k * Dv[ku + lu] * thf_p -
                              hgb * Dv[ku + lu];
                        T r = dw_(i, j, k) + dt * slow.rhow(i, j, k) -
                              gk * (beta * (cpt_k * Cv[ku + lu] -
                                            cpt_m * Cv[km + lu]) +
                                    one_m_beta *
                                        (dp_(i, j, k) - dp_(i, j, k - 1))) -
                              dt * g *
                                  (beta * T(0.5) *
                                       (Rv[km + lu] + Rv[ku + lu]) +
                                   one_m_beta * T(0.5) *
                                       (drho_(i, j, k - 1) +
                                        drho_(i, j, k)));
                        // Boundary folds: W'_0 and W'_nz carry no flux.
                        if (k == 1) a = T(0);
                        if (k == nz - 1) c = T(0);
                        sub[row + lu] = a;
                        dia[row + lu] = b;
                        sup[row + lu] = c;
                        rhs[row + lu] = r;
                    }
                }
                solve_tridiagonal_batched<T>(sub.data(), dia.data(),
                                             sup.data(), rhs.data(),
                                             scratch.data(), betav.data(),
                                             n - 1, w, W);
                for (Index k = 1; k < nz; ++k) {
                    const std::size_t row =
                        static_cast<std::size_t>(k - 1) * W;
                    for (Index l = 0; l < iw; ++l) {
                        dw_(ib + l, j, k) =
                            rhs[row + static_cast<std::size_t>(l)];
                    }
                }
                for (Index l = 0; l < iw; ++l) dw_(ib + l, j, nz) = T(0);
                // Finish the columns (the paper's Fig. 1 continuity, theta
                // and pressure updates) with the new W' at their faces;
                // system row k-1 holds face k.
                for (Index k = 0; k < nz; ++k) {
                    const std::size_t row = static_cast<std::size_t>(k) * W;
                    for (Index l = 0; l < iw; ++l) {
                        const Index i = ib + l;
                        const auto lu = static_cast<std::size_t>(l);
                        const T w_lo = (k == 0) ? T(0) : rhs[row - W + lu];
                        const T w_hi = (k == nz - 1) ? T(0) : rhs[row + lu];
                        drho_(i, j, k) = implicit_update::continuity(
                            Rv[row + lu], Dv[row + lu], w_lo, w_hi);
                        const T dth = implicit_update::theta(
                            Cv[row + lu], Dv[row + lu], thf_z_(i, j, k),
                            thf_z_(i, j, k + 1), w_lo, w_hi);
                        dth_(i, j, k) = dth;
                        dp_(i, j, k) =
                        implicit_update::pressure(cpt_(i, j, k), dth);
                    }
                }
            }
        }
        });
    }

  private:
    const Grid<T>& grid_;
    AcousticConfig cfg_;
    // Linearization coefficients (frozen per RK stage).
    Array3<T> cpt_;  ///< dp/d(rho theta_m) at centers
    Array3<T> thf_x_, thf_y_, thf_z_;  ///< face theta_m
    // Deviations.
    Array3<T> du_, dv_, dw_, drho_, dth_, dp_;
    // Workspace.
    Array3<T> dp_half_, tend_u_, tend_v_;
    Index batch_w_;  ///< resolved column-batch width
};

}  // namespace asuca
