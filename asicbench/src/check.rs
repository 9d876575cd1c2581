//! Output checkers. Each compares what the program produced with a
//! value computed apart from the engine under test and returns a
//! description of the first disagreement.

pub type Check = Result<(), String>;

/// A burst's per-symbol `(decision, error)` outputs must equal the
/// reference receiver's, symbol for symbol.
pub fn burst_matches_reference(hw: &[(bool, f64)], reference: &[(bool, f64)]) -> Check {
    if hw.len() != reference.len() {
        return Err(format!(
            "{} symbols, reference has {}",
            hw.len(),
            reference.len()
        ));
    }
    match hw.iter().zip(reference).position(|(h, r)| h != r) {
        Some(k) => Err(format!(
            "symbol {k}: simulator {:?}, reference {:?}",
            hw[k], reference[k]
        )),
        None => Ok(()),
    }
}

/// A block's grading must account for its whole fault universe.
pub fn grading_complete(universe: u64, total: u64, detected: u64, undetected: u64) -> Check {
    if total != universe || detected + undetected != universe {
        return Err(format!(
            "universe {universe}, graded {total}: {detected} detected + {undetected} undetected"
        ));
    }
    Ok(())
}

/// A fault re-graded alone must get the packed grader's classification.
pub fn same_classification(
    fault: (usize, bool),
    packed_detected: bool,
    single_detected: bool,
) -> Check {
    if packed_detected != single_detected {
        return Err(format!(
            "fault at gate {} stuck-at-{}: packed grader says detected={packed_detected}, \
             single-fault simulation says detected={single_detected}",
            fault.0, fault.1 as u8
        ));
    }
    Ok(())
}

/// A BER job's per-point `(errors, bits)` chunks must equal the
/// recount of every point.
pub fn ber_sweep_matches(reported: &[(u64, u64)], recount: &[(u64, u64)]) -> Check {
    if reported != recount {
        return Err(format!(
            "service reported {reported:?}, recount {recount:?}"
        ));
    }
    Ok(())
}

/// A campaign's outcome classes must add up to its event count:
/// `[injections, masked, silent, detected, timed_out]`.
pub fn campaign_accounts(events: u64, counts: [u64; 5]) -> Check {
    let [injections, masked, silent, detected, timed_out] = counts;
    if injections != events || masked + silent + detected + timed_out != events {
        return Err(format!(
            "{events} events: {injections} injections, {masked} masked + {silent} silent + \
             {detected} detected + {timed_out} timed out"
        ));
    }
    Ok(())
}

/// The digest after `2n` cycles in one run must equal the digest after
/// `n` cycles, a park and `n` more.
pub fn session_resumes(one_run: &str, parked_runs: &str) -> Check {
    if one_run != parked_runs {
        return Err(format!(
            "2n-cycle digest {one_run}, n+park+n digest {parked_runs}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each checker must reject one corrupted output.
    use super::*;
    use crate::program as p;

    #[test]
    fn flipped_decision_bit_is_caught() {
        let b = p::burst(48, &[1.0, 0.4], 0.02, 7);
        let reference = p::reference(p::samples(&b));
        assert_eq!(burst_matches_reference(&reference, &reference), Ok(()));
        let mut hw = reference.clone();
        hw[40].0 = !hw[40].0;
        assert!(burst_matches_reference(&hw, &reference).is_err());
    }

    #[test]
    fn flipped_fault_classification_is_caught() {
        let d = p::capture_hcor().unwrap();
        let blocks = p::synthesize_blocks(&d).unwrap();
        let net = &blocks[0].netlist;
        let stim = p::lfsr_stimulus(net, 32, 0xace1);
        let g = p::bist_signoff(net, &stim, 1).unwrap();
        let universe = p::fault_universe(net);
        let und = g.undetected.len() as u64;
        assert_eq!(
            grading_complete(universe.len() as u64, g.total, g.detected, und),
            Ok(())
        );
        assert!(grading_complete(universe.len() as u64, g.total, g.detected + 1, und).is_err());
        let golden = p::golden_stream(net, &stim).unwrap();
        let fault = universe[universe.len() / 2];
        let packed = !g.undetected.contains(&fault);
        let single = p::regrade_one(net, &stim, &golden, fault);
        assert_eq!(same_classification(fault, packed, single), Ok(()));
        assert!(same_classification(fault, !packed, single).is_err());
    }

    #[test]
    fn off_by_one_ber_count_is_caught() {
        let d = p::capture_dect().unwrap();
        let tape = p::compile(&d).unwrap();
        let (channel, noise) = ([1.0, 0.45], 0.3);
        let (engine, _) = p::ber_batched(&channel, noise, 2, 32, 2, &tape).unwrap();
        let tr = crate::trace::Tracer::new(false);
        let recount = crate::serve_mix::ber_recount(&tr, &channel, noise, 2, 32);
        assert_eq!(ber_sweep_matches(&[engine], &[recount]), Ok(()));
        assert!(ber_sweep_matches(&[(recount.0 + 1, recount.1)], &[recount]).is_err());
        assert!(ber_sweep_matches(&[(recount.0, recount.1 - 1)], &[recount]).is_err());
        assert!(campaign_accounts(32, [32, 20, 5, 6, 1]).is_ok());
        assert!(campaign_accounts(32, [32, 20, 5, 6, 2]).is_err());
    }

    #[test]
    fn wrong_session_digest_is_caught() {
        std::fs::create_dir_all("out").unwrap();
        let socket = format!("out/check-test-{}.sock", std::process::id());
        let server = p::Server::start(&socket).unwrap();
        let mut c = p::Client::connect(&socket).unwrap();
        let digest = |r: p::Reply| match r {
            p::Reply::Digest(d) => d,
            _ => panic!("session.run did not return a digest"),
        };
        for s in ["a", "b"] {
            assert!(matches!(c.session_open("o", s, 5).unwrap(), p::Reply::Ok));
        }
        let one = digest(c.session_run("r1", "a", 32).unwrap());
        digest(c.session_run("r2", "b", 16).unwrap());
        let parked = digest(c.session_run("r3", "b", 16).unwrap());
        drop(c);
        server.stop().unwrap();
        assert_eq!(session_resumes(&one, &parked), Ok(()));
        let mut wrong = parked.into_bytes();
        wrong[0] = if wrong[0] == b'0' { b'1' } else { b'0' };
        assert!(session_resumes(&one, &String::from_utf8(wrong).unwrap()).is_err());
    }
}
