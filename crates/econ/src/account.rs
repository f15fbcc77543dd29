//! The cloud account — an exactly balancing money ledger.
//!
//! Section IV-A of the paper: *"The cloud has an account where the user
//! payments for the query services they receive are deposited. Also, money
//! from this account are used in order to invest on new inventory."* The
//! overall credit is the paper's `CR`, the denominator of the investment
//! rule (eq. 3).

use pricing::Money;
use serde::Serialize;

/// The cloud's money account. Balance (`CR`) = Σ deposits − Σ withdrawals,
/// exactly, in nano-dollars.
#[derive(Debug, Clone, Serialize)]
pub struct CloudAccount {
    balance: Money,
    deposited: Money,
    withdrawn: Money,
    payments: Money,
    investments: Money,
    payment_count: u64,
    investment_count: u64,
}

impl CloudAccount {
    /// Opens an account with the given working capital.
    ///
    /// # Panics
    /// Panics on negative initial credit.
    #[must_use]
    pub fn new(initial_credit: Money) -> Self {
        assert!(
            !initial_credit.is_negative(),
            "initial credit must be non-negative"
        );
        CloudAccount {
            balance: initial_credit,
            deposited: initial_credit,
            withdrawn: Money::ZERO,
            payments: Money::ZERO,
            investments: Money::ZERO,
            payment_count: 0,
            investment_count: 0,
        }
    }

    /// The paper's `CR`: current credit.
    #[must_use]
    pub fn balance(&self) -> Money {
        self.balance
    }

    /// Total user payments received.
    #[must_use]
    pub fn total_payments(&self) -> Money {
        self.payments
    }

    /// Total invested in structures.
    #[must_use]
    pub fn total_investments(&self) -> Money {
        self.investments
    }

    /// Number of query payments recorded.
    #[must_use]
    pub fn payment_count(&self) -> u64 {
        self.payment_count
    }

    /// Number of investments recorded.
    #[must_use]
    pub fn investment_count(&self) -> u64 {
        self.investment_count
    }

    /// Deposits a user payment.
    ///
    /// # Panics
    /// Panics on negative amounts.
    pub fn deposit_payment(&mut self, amount: Money) {
        assert!(!amount.is_negative(), "payments cannot be negative");
        self.balance += amount;
        self.deposited += amount;
        self.payments += amount;
        self.payment_count += 1;
    }

    /// Withdraws an investment.
    ///
    /// # Errors
    /// Returns `Err(balance)` without mutating if funds are insufficient —
    /// the altruistic cloud never runs a deficit on investments.
    pub fn withdraw_investment(&mut self, amount: Money) -> Result<(), Money> {
        assert!(!amount.is_negative(), "investments cannot be negative");
        if self.balance < amount {
            return Err(self.balance);
        }
        self.balance -= amount;
        self.withdrawn += amount;
        self.investments += amount;
        self.investment_count += 1;
        Ok(())
    }

    /// Ledger invariant: balance equals deposits minus withdrawals.
    #[must_use]
    pub fn balances_exactly(&self) -> bool {
        self.balance == self.deposited - self.withdrawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(x: f64) -> Money {
        Money::from_dollars(x)
    }

    #[test]
    fn opens_with_initial_credit() {
        let a = CloudAccount::new(m(50.0));
        assert_eq!(a.balance(), m(50.0));
        assert!(a.balances_exactly());
    }

    #[test]
    fn deposits_and_withdrawals_balance() {
        let mut a = CloudAccount::new(m(10.0));
        a.deposit_payment(m(5.0));
        a.deposit_payment(m(2.5));
        a.withdraw_investment(m(7.0)).unwrap();
        assert_eq!(a.balance(), m(10.5));
        assert!(a.balances_exactly());
        assert_eq!(a.total_payments(), m(7.5));
        assert_eq!(a.total_investments(), m(7.0));
        assert_eq!(a.payment_count(), 2);
        assert_eq!(a.investment_count(), 1);
    }

    #[test]
    fn investment_refused_when_underfunded() {
        let mut a = CloudAccount::new(m(1.0));
        let err = a.withdraw_investment(m(2.0)).unwrap_err();
        assert_eq!(err, m(1.0));
        assert_eq!(a.balance(), m(1.0), "refusal must not mutate");
        assert_eq!(a.investment_count(), 0);
    }

    #[test]
    fn million_micropayments_balance_exactly() {
        let mut a = CloudAccount::new(Money::ZERO);
        let tick = Money::from_nanos(37);
        for _ in 0..1_000_000 {
            a.deposit_payment(tick);
        }
        assert_eq!(a.balance(), Money::from_nanos(37_000_000));
        assert!(a.balances_exactly());
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_payment_rejected() {
        CloudAccount::new(Money::ZERO).deposit_payment(m(-1.0));
    }
}
