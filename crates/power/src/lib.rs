//! # pss-power
//!
//! The power/energy algebra of the speed-scaling model: the power function
//! `P_α(s) = s^α`, its derivative and inverse, the energy needed to process
//! a given amount of work in a given amount of time, and the closed-form
//! constants appearing in the paper's analysis (the competitive ratio
//! `α^α`, the parameter `δ = α^{1-α}`, the rejection threshold
//! `α^{α-2}·v`, and the Chan–Lam–Li bound `α^α + 2e^α`).
//!
//! Everything in the workspace that touches speeds or energies goes through
//! [`AlphaPower`] so that numeric conventions (handling of `s = 0`,
//! `work = 0`, and tiny negative values from round-off) live in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alpha;

pub use alpha::AlphaPower;
