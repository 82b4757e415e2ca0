(** Empirical blocking-probability experiments.

    The paper's theorems predict a sharp edge: at [m >= m_min] no
    request sequence blocks; below it an adversary (and, in practice,
    plain random churn) can produce blocking.  These experiments sweep
    [m] across that edge and compare constructions and routing
    strategies at equal hardware — the dynamic counterpart of Table 2
    and the quantitative version of the Fig. 10 observation. *)

open Wdm_core
open Wdm_multistage

type measurement = {
  m : int;
  attempts : int;
  blocked : int;
  probability : float;
}

val theorem :
  construction:Network.construction -> n:int -> r:int -> k:int ->
  Conditions.evaluation
(** The sufficient condition of the construction: Theorem 1 for
    [Msw_dominant], Theorem 2 for [Maw_dominant].  Its [m_min] is the
    middle-module count every fabric defaults to. *)

(** {1 Churn adapters} *)

val churn_sut : Network.t -> (int, Network.error) Wdm_traffic.Churn.sut
(** {!Network.connect} and {!Network.disconnect} as a switch under
    test.  A refused teardown raises [Failure]: the driver only tears
    down ids it believes active, so a stale id means leaked capacity
    and a corrupted tally. *)

val faulty_sut :
  Network.t ->
  (int, Network.error, Wdm_faults.Fault.t) Wdm_traffic.Churn.faulty_sut
(** {!churn_sut} plus {!Network.inject_fault} and
    {!Network.clear_fault}, with victims re-homed through
    {!Network.connect_rearrangeable}. *)

val blocking_vs_m :
  ?seeds:int list ->
  ?steps:int ->
  ?fanout:Wdm_traffic.Fanout.t ->
  ?teardown_bias:float ->
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  ms:int list ->
  unit ->
  measurement list
(** Aggregates over the seeds; each seed runs an independent churn. *)

val blocking_table :
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  Table.t
(** Sweeps [m] from the topological minimum up past the theorem bound,
    marking [m_min]. *)

val construction_ablation : n:int -> r:int -> k:int -> ms:int list -> Table.t
(** MSW-dominant vs MAW-dominant blocking at equal [m] (network model
    MAW) — the Fig. 10 effect under load. *)

val blocking_vs_load :
  ?seeds:int list ->
  ?steps:int ->
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  m:int ->
  unit ->
  Table.t
(** Blocking probability and mean utilization as the offered load rises
    (teardown bias falling from 0.6 to 0.05) at fixed hardware [m] —
    the Erlang-flavoured view of an undersized switch.  At
    [m >= m_min] every row must show zero blocking regardless of
    load. *)

val erlang_curve :
  ?seed:int ->
  ?horizon:float ->
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  m:int ->
  offered:float list ->
  unit ->
  Table.t
(** Classical telephony view: Poisson arrivals, exponential holding
    (mean 1), blocking probability per offered load in Erlangs at fixed
    hardware.  At a theorem-sized [m] every row is zero regardless of
    load — the nonblocking property expressed in Erlang terms. *)

val frontier :
  ?seeds:int list ->
  ?steps:int ->
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  unit ->
  int option
(** The largest [m] (searched from the topological minimum [n] up to
    the theorem's [m_min - 1]) at which any seed still produced
    blocking — an empirical lower estimate of where the true
    nonblocking threshold sits relative to the sufficient condition.
    [None] if even [m = n] never blocked under this traffic. *)

val rearrangement_ablation :
  ?seeds:int list ->
  ?steps:int ->
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  ms:int list ->
  unit ->
  Table.t
(** For each undersized [m]: how many churn requests block outright and
    how many of those a single-connection rearrangement rescues — the
    strict-sense vs rearrangeable gap, measured. *)

val strategy_ablation :
  construction:Network.construction ->
  output_model:Model.t ->
  n:int ->
  r:int ->
  k:int ->
  m:int ->
  Table.t
(** Min-intersection vs first-fit vs exhaustive at the same topology:
    blocked counts and mean middles used per route. *)
